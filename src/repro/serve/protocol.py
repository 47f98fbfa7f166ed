"""The versioned wire schema of the simulation service.

Every request and response body is JSON with an explicit integer
``version`` field; the server rejects versions it does not speak with a
:class:`ProtocolError` (HTTP 400) instead of guessing.  Parsing is
strict — unknown top-level keys, wrong types, and out-of-range values
are all rejected — so a malformed client fails loudly at admission, not
deep inside a worker.

Request layout (``POST /v1/simulate``)::

    {"version": 1,
     "workload": "stencil-default",
     "prefetcher": "cbws+sms",
     "scale": 1.0,
     "budget_fraction": 0.05,
     "seed": 0,
     "config": {"l1_kb": 4, "l2_kb": 128,
                "core": {"rob_entries": 64},
                "prefetch": {"issue_interval": 4}}}

``config`` is a sparse override of the reduced Table II machine: only
the listed fields change, everything else keeps its default.  A parsed
request holds the overrides as the same sorted ``(path, value)`` pairs
a campaign cell does, and :meth:`SimulateRequest.node` resolves them
(:func:`repro.sim.config.resolve_cell_config`) into the
:class:`~repro.exec.plan.SimNode` the broker runs.  The node's ``key``
hashes the fully resolved config and the canonical prefetcher name, so
two requests for the same simulation deduplicate even if they spelled
their overrides or prefetcher parameters differently.

Response layout (:class:`JobView`) mirrors a broker job: identity,
status, dedup/cache provenance, and (when terminal) the serialized
:class:`~repro.sim.results.SimResult` or an error string.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping

from repro.common.errors import ReproError
from repro.sim.config import (
    CoreConfig,
    PrefetchPathConfig,
    REDUCED_CONFIG,
    SimConfig,
    resolve_cell_config,
)

if TYPE_CHECKING:
    from repro.exec.plan import SimNode

#: Version of the request/response wire schema.  Bump on any field
#: change; the server answers exactly one version.
PROTOCOL_VERSION = 1


class ProtocolError(ReproError):
    """A request or response violates the wire schema."""


class JobStatus(Enum):
    """Lifecycle of one submitted simulation job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobStatus.DONE, JobStatus.FAILED)


_CORE_FIELDS = {field.name for field in dataclasses.fields(CoreConfig)}
_PREFETCH_FIELDS = {
    field.name for field in dataclasses.fields(PrefetchPathConfig)
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _check_mapping(value: object, what: str) -> Mapping[str, Any]:
    _require(isinstance(value, Mapping), f"{what} must be a JSON object")
    return value  # type: ignore[return-value]


def _check_str(payload: Mapping[str, Any], key: str) -> str:
    value = payload.get(key)
    _require(isinstance(value, str) and bool(value.strip()),
             f"field {key!r} must be a non-empty string")
    return value


def _check_int(value: object, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer")
    return value  # type: ignore[return-value]


def _check_positive_number(value: object, what: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number",
    )
    number = float(value)  # type: ignore[arg-type]
    _require(number > 0 and number == number and number != float("inf"),
             f"{what} must be positive and finite")
    return number


def _check_version(payload: Mapping[str, Any], what: str) -> int:
    _require("version" in payload, f"{what} is missing its 'version' field")
    version = _check_int(payload["version"], f"{what} version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported {what} version {version}; this server speaks "
            f"version {PROTOCOL_VERSION}"
        )
    return version


def _check_overrides(value: object, what: str,
                     allowed: set[str]) -> tuple[tuple[str, int], ...]:
    mapping = _check_mapping(value, what)
    pairs: list[tuple[str, int]] = []
    for key in sorted(mapping):
        _require(key in allowed,
                 f"{what} has no overridable field {key!r}; "
                 f"known: {', '.join(sorted(allowed))}")
        pairs.append((key, _check_int(mapping[key], f"{what}.{key}")))
    return tuple(pairs)


@dataclass(frozen=True)
class SimulateRequest:
    """One validated ``POST /v1/simulate`` body.

    Config overrides are stored as the sorted ``(path, value)`` tuple a
    campaign cell holds (``("l1_kb", 8)``, ``("core.rob_entries", 64)``),
    so the dataclass stays hashable and order-insensitive: two requests
    spelling the same overrides in different orders are equal.
    """

    workload: str
    prefetcher: str
    version: int = PROTOCOL_VERSION
    scale: float = 1.0
    budget_fraction: float = 1.0
    seed: int = 0
    overrides: tuple[tuple[str, int], ...] = ()

    _KEYS = frozenset({
        "version", "workload", "prefetcher", "scale", "budget_fraction",
        "seed", "config",
    })
    _CONFIG_KEYS = frozenset({"l1_kb", "l2_kb", "core", "prefetch"})

    @classmethod
    def from_dict(cls, payload: object) -> "SimulateRequest":
        """Parse and validate one request body (raises ProtocolError)."""
        body = _check_mapping(payload, "simulate request")
        unknown = set(body) - cls._KEYS
        _require(not unknown,
                 f"unknown request field(s): {', '.join(sorted(unknown))}")
        version = _check_version(body, "request")
        workload = _check_str(body, "workload")
        prefetcher = _check_str(body, "prefetcher")
        scale = _check_positive_number(body.get("scale", 1.0), "scale")
        budget_fraction = _check_positive_number(
            body.get("budget_fraction", 1.0), "budget_fraction")
        _require(budget_fraction <= 1.0, "budget_fraction must be <= 1.0")
        seed = _check_int(body.get("seed", 0), "seed")

        overrides: list[tuple[str, int]] = []
        if "config" in body:
            config = _check_mapping(body["config"], "config")
            unknown = set(config) - cls._CONFIG_KEYS
            _require(
                not unknown,
                f"unknown config field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(cls._CONFIG_KEYS))}",
            )
            for path in ("l1_kb", "l2_kb"):
                if path in config:
                    value = _check_int(config[path], f"config.{path}")
                    _require(value > 0, f"config.{path} must be positive")
                    overrides.append((path, value))
            for group, allowed in (("core", _CORE_FIELDS),
                                   ("prefetch", _PREFETCH_FIELDS)):
                if group in config:
                    overrides.extend(
                        (f"{group}.{name}", value)
                        for name, value in _check_overrides(
                            config[group], f"config.{group}", allowed))

        return cls(
            workload=workload,
            prefetcher=prefetcher,
            version=version,
            scale=scale,
            budget_fraction=budget_fraction,
            seed=seed,
            overrides=tuple(sorted(overrides)),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready body; ``from_dict`` round-trips it exactly."""
        document: dict[str, Any] = {
            "version": self.version,
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "scale": self.scale,
            "budget_fraction": self.budget_fraction,
            "seed": self.seed,
        }
        config: dict[str, Any] = {}
        for path, value in self.overrides:
            group, _, name = path.partition(".")
            if name:
                config.setdefault(group, {})[name] = value
            else:
                config[path] = value
        if config:
            document["config"] = config
        return document

    def node(self, base: SimConfig = REDUCED_CONFIG) -> SimNode:
        """The simulation this request asks for over machine ``base``.

        Field-level validation (positive latencies, monotone hierarchy,
        ...) happens in the config dataclasses' own ``__post_init__``;
        anything they raise is a :class:`~repro.common.errors.ConfigError`
        the server maps to HTTP 400.
        """
        from repro.exec.plan import SimNode, TraceNode

        return SimNode(
            TraceNode(self.workload, self.scale, self.budget_fraction,
                      self.seed),
            self.prefetcher,
            resolve_cell_config(self.overrides, base),
        )


@dataclass(frozen=True)
class JobView:
    """One job's externally visible state (submit/poll response body)."""

    job_id: str
    status: JobStatus
    workload: str
    prefetcher: str
    key: str
    version: int = PROTOCOL_VERSION
    #: Whether *this* submission attached to an already in-flight job.
    deduplicated: bool = False
    #: True when the result replayed from the content-addressed cache
    #: without simulating; None while not yet known.
    cache_hit: bool | None = None
    wall_seconds: float | None = None
    result: Mapping[str, Any] | None = None
    error: str | None = None

    _KEYS = frozenset({
        "version", "job_id", "status", "workload", "prefetcher", "key",
        "deduplicated", "cache_hit", "wall_seconds", "result", "error",
    })

    @classmethod
    def from_dict(cls, payload: object) -> "JobView":
        """Parse and validate one job body (raises ProtocolError)."""
        body = _check_mapping(payload, "job view")
        unknown = set(body) - cls._KEYS
        _require(not unknown,
                 f"unknown job field(s): {', '.join(sorted(unknown))}")
        version = _check_version(body, "job view")
        status_raw = _check_str(body, "status")
        try:
            status = JobStatus(status_raw)
        except ValueError:
            raise ProtocolError(
                f"unknown job status {status_raw!r}; known: "
                + ", ".join(s.value for s in JobStatus)
            ) from None
        deduplicated = body.get("deduplicated", False)
        _require(isinstance(deduplicated, bool),
                 "field 'deduplicated' must be a boolean")
        cache_hit = body.get("cache_hit")
        _require(cache_hit is None or isinstance(cache_hit, bool),
                 "field 'cache_hit' must be a boolean or null")
        wall_seconds = body.get("wall_seconds")
        if wall_seconds is not None:
            _require(
                isinstance(wall_seconds, (int, float))
                and not isinstance(wall_seconds, bool)
                and wall_seconds >= 0,
                "field 'wall_seconds' must be a non-negative number",
            )
            wall_seconds = float(wall_seconds)
        result = body.get("result")
        if result is not None:
            result = dict(_check_mapping(result, "result"))
        error = body.get("error")
        _require(error is None or isinstance(error, str),
                 "field 'error' must be a string or null")
        return cls(
            job_id=_check_str(body, "job_id"),
            status=status,
            workload=_check_str(body, "workload"),
            prefetcher=_check_str(body, "prefetcher"),
            key=_check_str(body, "key"),
            version=version,
            deduplicated=deduplicated,
            cache_hit=cache_hit,
            wall_seconds=wall_seconds,
            result=result,
            error=error,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready body; ``from_dict`` round-trips it exactly."""
        return {
            "version": self.version,
            "job_id": self.job_id,
            "status": self.status.value,
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "key": self.key,
            "deduplicated": self.deduplicated,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
            "result": dict(self.result) if self.result is not None else None,
            "error": self.error,
        }


def error_body(kind: str, message: str,
               retry_after: float | None = None) -> dict[str, Any]:
    """The uniform JSON error envelope every non-2xx response carries."""
    body: dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "error": {"type": kind, "message": message},
    }
    if retry_after is not None:
        body["error"]["retry_after_seconds"] = retry_after
    return body


def dumps(document: Mapping[str, Any]) -> bytes:
    """Canonical JSON encoding used for every HTTP body."""
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def loads(raw: bytes) -> Any:
    """Decode one HTTP body, mapping JSON errors to ProtocolError."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"body is not valid JSON: {error}") from None
