"""Deterministic fault injection for the durability test-suite and CI.

The production failure paths (journal replay after a crash, checksum
verification, circuit-breaker degradation) only matter when things go
wrong, so this module makes things go wrong *on purpose* and *on
schedule*: each :class:`FaultSpec` names a site in the execution stack
and an occurrence index at which to fire, so a test or a CI job can say
"kill the run right after the third task completes" or "tear the fifth
journal append in half" and get exactly that, every time.

Sites are plain strings checked by the code that owns them; a
``REPRO_FAULTS`` clause naming any other site is rejected:

``task-done``
    Checked by the scheduler after every completed simulation, on the
    serial and pool paths alike (trace builds do not count), once its
    result is cached and journaled.
``journal.append``
    Checked (via :func:`mangle`) by :meth:`repro.exec.journal.RunJournal
    .append` around the write+flush of one record — shared by grid runs,
    campaigns, and the serve job journal, so ``torn`` here reproduces a
    torn *serve* journal too.
``serve.admit``
    Checked by the broker at the top of every admission.
``serve.job-finished``
    Checked by the broker once a job's result is cached, before the
    job turns terminal (``exit`` here is the canonical kill-broker
    chaos: the process dies mid-batch with journaled-but-unfinished
    jobs on the books).

Fault kinds:

``raise``            raise :class:`TransientError`
``raise-permanent``  raise :class:`PermanentError`
``crash``            raise :class:`InjectedCrash` (simulated process death)
``exit``             ``os._exit(70)`` — a *real* process death, for
                     subprocess-based tests and the CI smoke job
``torn``             (write sites only) persist the first half of the
                     payload, then die via :class:`InjectedCrash`

Injectors install process-globally with :func:`install` /
:func:`deactivate`, or from the ``REPRO_FAULTS`` environment variable
(``site:kind@occurrence``, comma-separated) so a CLI subprocess can be
sabotaged without code changes.  With no injector installed every check
is a no-op.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import (
    ExecError,
    FaultInjected,
    InjectedCrash,
    PermanentError,
    TransientError,
)

#: Exit code used by the ``exit`` fault kind, so harnesses can tell an
#: injected death from an organic one.
EXIT_CODE = 70

_KINDS = ("raise", "raise-permanent", "crash", "exit", "torn")

#: Sites the code checks; :func:`parse_fault_spec` accepts only these.
_SITES = ("task-done", "journal.append", "serve.admit", "serve.job-finished")

#: Environment variable holding a fault plan for subprocesses.
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``times`` times starting at the
    ``at``-th hit (1-based) of ``site``."""

    site: str
    kind: str
    at: int = 1
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExecError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.at < 1 or self.times < 1:
            raise ExecError("fault occurrence and count are 1-based")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``site:kind[@at[xtimes]]`` clause.

    Examples: ``task-done:exit@3``, ``journal.append:torn@2``,
    ``task-done:raise@1x4``.  An unknown kind or site raises
    :class:`ExecError`: a misspelt site would otherwise never fire.
    """
    head, _, occurrence = text.partition("@")
    site, separator, kind = head.rpartition(":")
    if not separator or not site or not kind:
        raise ExecError(f"malformed fault spec {text!r}; want site:kind[@N]")
    at, times = 1, 1
    if occurrence:
        count_text, x, times_text = occurrence.partition("x")
        try:
            at = int(count_text)
            times = int(times_text) if x else 1
        except ValueError:
            raise ExecError(
                f"malformed fault occurrence in {text!r}; want site:kind@NxM"
            ) from None
    spec = FaultSpec(site=site, kind=kind, at=at, times=times)
    if site not in _SITES:
        raise ExecError(
            f"unknown fault site {site!r} in {text!r}; expected one of {_SITES}"
        )
    return spec


def parse_fault_plan(text: str) -> list[FaultSpec]:
    """Parse a comma-separated list of fault clauses."""
    return [
        parse_fault_spec(clause.strip())
        for clause in text.split(",")
        if clause.strip()
    ]


class FaultInjector:
    """Counts hits per site and fires the matching specs."""

    def __init__(self, specs: list[FaultSpec] | FaultSpec) -> None:
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        self.hits: dict[str, int] = {}
        self.fired: list[tuple[str, str, int]] = []

    def _firing(self, site: str) -> FaultSpec | None:
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for spec in self.specs:
            if spec.site == site and spec.at <= count < spec.at + spec.times:
                self.fired.append((site, spec.kind, count))
                return spec
        return None

    def check(self, site: str) -> None:
        """Record one hit of ``site``; raise or exit if a spec fires."""
        spec = self._firing(site)
        if spec is None:
            return
        if spec.kind == "exit":
            os._exit(EXIT_CODE)
        if spec.kind == "crash":
            raise InjectedCrash(f"injected crash at {site} (hit {self.hits[site]})")
        if spec.kind == "raise-permanent":
            raise PermanentError(f"injected permanent failure at {site}")
        if spec.kind == "torn":
            # A torn fault only makes sense on a write path; hitting it
            # through check() means the site passed no payload.
            raise InjectedCrash(f"injected torn write at {site}")
        raise TransientError(f"injected transient failure at {site}")

    def mangle(self, site: str, data: bytes) -> tuple[bytes, BaseException | None]:
        """Filter a payload about to be persisted at a write site.

        Returns the (possibly truncated) bytes to write and an exception
        the caller must raise *after* flushing them — the torn-write
        fault persists half a record and then 'dies', exactly like a
        power cut mid-append.
        """
        spec = self._firing(site)
        if spec is None:
            return data, None
        if spec.kind == "torn":
            return data[: max(1, len(data) // 2)], InjectedCrash(
                f"injected torn write at {site} (hit {self.hits[site]})"
            )
        if spec.kind == "exit":
            os._exit(EXIT_CODE)
        if spec.kind == "crash":
            return data, InjectedCrash(f"injected crash at {site}")
        if spec.kind == "raise-permanent":
            return data, PermanentError(f"injected permanent failure at {site}")
        return data, TransientError(f"injected transient failure at {site}")


#: The process-wide active injector (None disables all checks).
ACTIVE: FaultInjector | None = None


def install(specs: list[FaultSpec] | FaultSpec | FaultInjector) -> FaultInjector:
    """Activate fault injection process-wide; returns the injector."""
    global ACTIVE
    ACTIVE = specs if isinstance(specs, FaultInjector) else FaultInjector(specs)
    return ACTIVE


def deactivate() -> None:
    """Remove the active injector (every check becomes a no-op)."""
    global ACTIVE
    ACTIVE = None


def install_from_env(environ: dict[str, str] | None = None) -> FaultInjector | None:
    """Install an injector from ``$REPRO_FAULTS``, if set."""
    value = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not value:
        return None
    return install(parse_fault_plan(value))


def check(site: str) -> None:
    """Hit ``site`` on the active injector; no-op when none installed."""
    if ACTIVE is not None:
        ACTIVE.check(site)


def mangle(site: str, data: bytes) -> tuple[bytes, BaseException | None]:
    """Filter a write through the active injector (no-op when none)."""
    if ACTIVE is None:
        return data, None
    return ACTIVE.mangle(site, data)


# ---------------------------------------------------------------------------
# Artifact corruption helpers (used by tests and nothing else)
# ---------------------------------------------------------------------------


def truncate_file(path: object, keep_fraction: float = 0.5) -> int:
    """Truncate a file to a fraction of its size; returns the new size."""
    data = open(path, "rb").read()
    keep = int(len(data) * keep_fraction)
    with open(path, "wb") as handle:
        handle.write(data[:keep])
    return keep


def bitflip_file(path: object, offset: int, bit: int = 0) -> None:
    """Flip one bit of the byte at ``offset`` (negative offsets ok)."""
    data = bytearray(open(path, "rb").read())
    data[offset] ^= 1 << (bit & 7)
    with open(path, "wb") as handle:
        handle.write(bytes(data))


__all__ = [
    "ACTIVE",
    "ENV_VAR",
    "EXIT_CODE",
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "bitflip_file",
    "check",
    "deactivate",
    "install",
    "install_from_env",
    "mangle",
    "parse_fault_plan",
    "parse_fault_spec",
    "truncate_file",
]
