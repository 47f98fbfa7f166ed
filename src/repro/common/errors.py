"""Exception hierarchy and failure taxonomy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.

The execution engine additionally *classifies* failures so its retry and
degradation policies can react differently to each class:

``TRANSIENT``
    The attempt failed for a reason that may not recur (worker crash,
    timeout, resource pressure).  Worth retrying.
``PERMANENT``
    The task is deterministically broken (bad configuration, unknown
    workload, invalid program).  Retrying wastes time; fail fast.
``POISONED``
    The task repeatedly kills or wedges its worker.  It must be isolated
    so it cannot take the rest of the grid down with it.

:func:`classify_error` maps an exception to a class; tasks that want a
specific classification raise :class:`TransientError` or
:class:`PermanentError` directly.
"""

from __future__ import annotations

from enum import Enum


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An architectural or prefetcher configuration is inconsistent."""


class TraceError(ReproError):
    """A trace is malformed (bad ordering, unknown event, truncated file)."""


class ExecError(ReproError):
    """Grid execution failed (quarantined tasks, broken pool, bad stats)."""


class ValidationError(ReproError):
    """An IR program failed structural validation."""


class WorkloadError(ReproError):
    """A workload was requested with unknown name or invalid parameters."""


class IngestError(ReproError):
    """An external trace cannot be ingested.

    Base of the ingest taxonomy: :class:`IngestFormatError` for inputs
    that violate their declared format and :class:`IngestRegistryError`
    for problems with the ingest store itself.  All of them are
    deterministic — the same file fails the same way every time — so
    the whole family classifies as permanent (no retry storms).
    """


class IngestFormatError(IngestError):
    """An external trace file violates its declared format.

    Truncated fixed-width records, out-of-range flag bytes, malformed
    CSV lines, non-monotonic instruction counts: the message always
    names the offending record or line so multi-GB inputs are
    diagnosable without a hex editor.
    """


class IngestRegistryError(IngestError):
    """The ingest store registry is missing, corrupt, or inconsistent.

    Covers unknown ``ext:`` workload names, a registry.json that does
    not parse, and re-ingesting different content under an existing
    name without ``--force`` (which would silently poison every
    content-addressed cache key derived from that name).
    """


class JournalError(ReproError):
    """A run journal is missing, unreadable, or does not match the grid."""


class CampaignError(ReproError):
    """A parameter-space campaign cannot be planned, run, or resumed."""


class SpecError(CampaignError):
    """A sweep spec is malformed, inconsistent, or yields no cells."""


class InvariantViolation(ReproError):
    """A runtime invariant of the simulator was violated.

    Raised by :mod:`repro.check.invariants` when invariant checking is
    enabled and a structural property (MSHR bounds, L2 inclusion, queue
    capacity, issue-clock monotonicity, ...) does not hold.  Carries the
    machine-state ``context`` captured at the point of violation so the
    failure is diagnosable without a rerun.
    """

    def __init__(self, message: str, context: dict | None = None) -> None:
        super().__init__(message)
        self.context = dict(context or {})

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{base} [{detail}]"


class TransientError(ExecError):
    """A task failure that is expected to succeed on retry."""


class PermanentError(ExecError):
    """A task failure that retrying cannot fix."""


class DiskFullError(PermanentError):
    """The filesystem under the cache or journal is out of space.

    ``ENOSPC`` is an *environment* failure, not a task failure: every
    retry re-hits the same full disk, so this classifies as permanent
    (no retry storm) and carries an actionable remediation hint.
    """

    REMEDIATION = (
        "reclaim space with `repro cache gc --max-bytes <SIZE>` "
        "(or `--max-age <AGE>`), then rerun"
    )

    def __init__(self, message: str) -> None:
        super().__init__(f"{message}; {self.REMEDIATION}")


#: ``errno`` values that mean "the disk under this write is full".
_DISK_FULL_ERRNOS = (28, 122)  # ENOSPC, EDQUOT


def raise_if_disk_full(error: OSError, what: str) -> None:
    """Re-raise an ``OSError`` as :class:`DiskFullError` when it is a
    disk-full condition; return (caller re-raises the original) otherwise.
    """
    if error.errno in _DISK_FULL_ERRNOS:
        raise DiskFullError(f"disk full while writing {what} ({error})") from error


class FaultInjected(ExecError):
    """An error raised by the fault-injection harness (tests only)."""


class InjectedCrash(FaultInjected):
    """A simulated process death raised by the fault-injection harness.

    In-process fault tests raise this instead of calling ``os._exit`` so
    the 'crashed' state (torn journal line, half-written artifact) can be
    inspected and resumed within the same test process.
    """


class ErrorKind(Enum):
    """Failure classification used by the retry/degradation policy."""

    TRANSIENT = "transient"
    PERMANENT = "permanent"
    POISONED = "poisoned"


#: Exception types whose failures are deterministic: the same inputs
#: will fail the same way, so retries are pointless.  Invariant
#: violations are deterministic by construction: the simulator replays
#: the same trace the same way every time.
_PERMANENT_TYPES = (ConfigError, ValidationError, WorkloadError,
                    InvariantViolation, IngestError)


def classify_error(error: BaseException) -> ErrorKind:
    """Map an exception to its failure class.

    Explicit :class:`TransientError` / :class:`PermanentError` wins;
    configuration and validation errors are deterministic and therefore
    permanent; everything else (I/O hiccups, crashes surfaced as generic
    exceptions) defaults to transient so the bounded retry policy gets a
    chance to recover it.
    """
    if isinstance(error, PermanentError):
        return ErrorKind.PERMANENT
    if isinstance(error, TransientError):
        return ErrorKind.TRANSIENT
    if isinstance(error, _PERMANENT_TYPES):
        return ErrorKind.PERMANENT
    return ErrorKind.TRANSIENT
