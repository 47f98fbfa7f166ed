"""The ingest store: ingested traces as first-class ``ext:`` workloads.

An ingested trace lives in a content-addressed store directory (by
default ``<cache>/ingest``, overridable via ``REPRO_INGEST_STORE`` so
exec-pool workers and the serve broker resolve the same store as the
submitting CLI).  Each trace is one v2 file named
``<name>-<digest12>.trace`` plus a row in ``registry.json`` mapping the
user-facing name to the file, its content digest, and its recovery
metadata.

Downstream, the trace appears as the workload ``ext:<name>``:
:func:`repro.workloads.base.get_workload` fabricates a spec from the
registry row, and the content digest is mixed into every trace/sim cache
key (:mod:`repro.exec.keys`), so re-ingesting *different* content under
the same name can never replay stale cached results — and is refused
outright unless ``--force`` is given.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import IngestRegistryError, TraceError
from repro.ingest.convert import IngestResult, ingest_trace
from repro.ingest.recover import RecoveryConfig, RecoveryStats
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.io import read_trace
from repro.trace.stream import Trace

#: Namespace prefix that marks a workload name as an ingested trace.
EXT_PREFIX = "ext:"

_REGISTRY_VERSION = 1
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: File-name suffixes stripped when deriving a default trace name.
_STRIP_SUFFIXES = (".xz", ".gz", ".champsimtrace", ".champsim", ".csv",
                   ".trace")


def default_store_root() -> Path:
    """Resolve the store directory from the environment.

    ``REPRO_INGEST_STORE`` wins (the CLI exports it from ``--cache-dir``
    so multiprocessing workers and the serve broker inherit the same store);
    otherwise ``<REPRO_CACHE_DIR or .repro-cache>/ingest``.
    """
    explicit = os.environ.get("REPRO_INGEST_STORE")
    if explicit:
        return Path(explicit)
    cache = os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
    return Path(cache) / "ingest"


def is_ext_workload(name: str) -> bool:
    """True when ``name`` lives in the ``ext:`` namespace."""
    return name.startswith(EXT_PREFIX)


def ext_name(name: str) -> str:
    """Strip the ``ext:`` prefix (tolerating its absence)."""
    return name[len(EXT_PREFIX):] if name.startswith(EXT_PREFIX) else name


def derive_name(source: str | Path) -> str:
    """Default trace name from a source file name.

    Strips compression/format suffixes and normalizes the remainder; an
    unusable result (empty, or nothing but punctuation) asks the caller
    to pass ``--name`` instead of guessing.
    """
    stem = Path(source).name
    lowered = stem.lower()
    changed = True
    while changed:
        changed = False
        for suffix in _STRIP_SUFFIXES:
            if lowered.endswith(suffix) and len(lowered) > len(suffix):
                stem = stem[: -len(suffix)]
                lowered = lowered[: -len(suffix)]
                changed = True
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", stem).strip("-._")
    if not cleaned or not _NAME_RE.match(cleaned):
        raise IngestRegistryError(
            f"cannot derive a usable trace name from {source!r}; "
            "pass --name"
        )
    return cleaned


def validate_name(name: str) -> str:
    """Reject names that would break the registry or the namespace."""
    if not _NAME_RE.match(name):
        raise IngestRegistryError(
            f"invalid trace name {name!r}: use letters, digits, dot, "
            "underscore, dash (no spaces, no ':')"
        )
    return name


@dataclass(frozen=True)
class IngestRecord:
    """One registry row: identity and metadata of a stored trace."""

    name: str
    digest: str
    file: str
    format: str
    source: str
    instructions: int
    events: int
    accesses: int
    coverage: float
    block_instances: int
    block_ids: int

    @property
    def workload(self) -> str:
        """The workload name downstream layers use (``ext:<name>``)."""
        return EXT_PREFIX + self.name

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "file": self.file,
            "format": self.format,
            "source": self.source,
            "instructions": self.instructions,
            "events": self.events,
            "accesses": self.accesses,
            "coverage": self.coverage,
            "block_instances": self.block_instances,
            "block_ids": self.block_ids,
        }

    @classmethod
    def from_json(cls, name: str, row: dict) -> "IngestRecord":
        try:
            return cls(
                name=name,
                digest=row["digest"],
                file=row["file"],
                format=row["format"],
                source=row["source"],
                instructions=row["instructions"],
                events=row["events"],
                accesses=row["accesses"],
                coverage=row["coverage"],
                block_instances=row["block_instances"],
                block_ids=row["block_ids"],
            )
        except (KeyError, TypeError) as error:
            raise IngestRegistryError(
                f"registry row for {name!r} is malformed: {error}"
            ) from None


class IngestStore:
    """Directory of ingested traces plus their ``registry.json``."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    @property
    def registry_path(self) -> Path:
        return self.root / "registry.json"

    # -- registry ----------------------------------------------------------

    def _load(self) -> dict[str, dict]:
        if not self.registry_path.exists():
            return {}
        try:
            payload = json.loads(self.registry_path.read_text("utf-8"))
        except (OSError, ValueError) as error:
            raise IngestRegistryError(
                f"ingest registry {self.registry_path} is unreadable or "
                f"corrupt: {error}"
            ) from error
        if (not isinstance(payload, dict)
                or payload.get("version") != _REGISTRY_VERSION
                or not isinstance(payload.get("traces"), dict)):
            raise IngestRegistryError(
                f"ingest registry {self.registry_path} has an unexpected "
                "schema; delete it and re-ingest"
            )
        return payload["traces"]

    def _save(self, traces: dict[str, dict]) -> None:
        payload = {"version": _REGISTRY_VERSION, "traces": traces}
        temporary = self.registry_path.with_name(
            f".registry.json.{os.getpid()}.tmp")
        temporary.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
        os.replace(temporary, self.registry_path)

    def names(self) -> list[str]:
        """Stored trace names (without the ``ext:`` prefix), sorted."""
        return sorted(self._load())

    def records(self) -> list[IngestRecord]:
        traces = self._load()
        return [IngestRecord.from_json(name, traces[name])
                for name in sorted(traces)]

    def get(self, name: str) -> IngestRecord:
        """Look up a trace by bare or ``ext:``-prefixed name."""
        bare = ext_name(name)
        traces = self._load()
        if bare not in traces:
            known = ", ".join(sorted(traces)) or "<none ingested>"
            raise IngestRegistryError(
                f"unknown ingested trace {bare!r} in {self.root}; "
                f"known: {known}"
            )
        return IngestRecord.from_json(bare, traces[bare])

    def digest(self, name: str) -> str:
        """Content digest of a stored trace (salts downstream keys)."""
        return self.get(name).digest

    # -- ingestion ---------------------------------------------------------

    def ingest(
        self,
        source: str | Path,
        *,
        name: str | None = None,
        fmt: str | None = None,
        config: RecoveryConfig | None = None,
        force: bool = False,
    ) -> tuple[IngestRecord, RecoveryStats]:
        """Ingest ``source`` and register it under ``name``.

        Idempotent for identical content: re-ingesting the same bytes
        under the same name rewrites the same digest-named file and
        leaves every cache key valid.  *Different* content under an
        existing name is refused without ``force`` — silently changing
        what ``ext:<name>`` means would poison every content-addressed
        result derived from it.
        """
        source = Path(source)
        name = validate_name(name) if name is not None else derive_name(source)
        self.root.mkdir(parents=True, exist_ok=True)
        incoming = self.root / f".incoming-{os.getpid()}.trace"
        try:
            result = ingest_trace(
                source, incoming, trace_name=EXT_PREFIX + name,
                fmt=fmt, config=config,
            )
            traces = self._load()
            existing = traces.get(name)
            if (existing is not None and existing.get("digest") != result.digest
                    and not force):
                raise IngestRegistryError(
                    f"trace {name!r} already exists with different content "
                    f"(stored digest {existing.get('digest', '?')[:12]}, "
                    f"new {result.digest[:12]}); re-ingest with --force or "
                    "pick another --name"
                )
            final = self.root / f"{name}-{result.digest[:12]}.trace"
            os.replace(incoming, final)
            if existing is not None and existing.get("file") not in (
                    None, final.name):
                (self.root / existing["file"]).unlink(missing_ok=True)
            record = IngestRecord(
                name=name,
                digest=result.digest,
                file=final.name,
                format=result.format,
                source=str(source),
                instructions=result.instructions,
                events=result.events,
                accesses=result.accesses,
                coverage=result.stats.coverage,
                block_instances=result.stats.block_instances,
                block_ids=result.stats.block_ids,
            )
            traces[name] = record.to_json()
            self._save(traces)
            return record, result.stats
        finally:
            incoming.unlink(missing_ok=True)

    # -- loading -----------------------------------------------------------

    def trace_path(self, name: str) -> Path:
        return self.root / self.get(name).file

    def load_trace(self, name: str, max_accesses: int | None = None) -> Trace:
        """Load a stored trace, optionally truncated to a budget.

        Truncation mirrors the ``max_accesses`` budget semantics of
        synthetic workloads: keep the first N memory accesses and close
        any block left open at the cut, so the result still validates.
        """
        record = self.get(name)
        path = self.root / record.file
        if not path.exists():
            raise IngestRegistryError(
                f"trace file {path} is missing (registry row exists); "
                f"re-ingest {record.name!r}"
            )
        trace = read_trace(path)
        if max_accesses is not None:
            trace = truncate_to_accesses(trace, max_accesses)
        return trace


def truncate_to_accesses(trace: Trace, limit: int) -> Trace:
    """First ``limit`` memory accesses of ``trace``, markers balanced.

    Returns ``trace`` itself when it already fits the budget.  A block
    left open at the cut is closed at the last kept icount, so the
    truncated trace satisfies the same invariants as the full one.
    """
    if limit <= 0:
        raise TraceError(f"access budget must be positive, got {limit}")
    columns = trace.events
    kept = 0
    open_block: int | None = None
    for cut, (kind, block_id) in enumerate(zip(columns.kinds, columns.payloads)):
        if kind != BLOCK_END and kept >= limit:
            break
        if kind == MEMORY_ACCESS:
            kept += 1
        elif kind == BLOCK_BEGIN:
            open_block = block_id
        else:
            open_block = None
    else:
        return trace
    head = columns[:cut]
    if open_block is not None:
        closing = (BLOCK_END, head.icounts[-1], 0, open_block, 0)
        for column, value in zip(head.arrays(), closing):
            column.append(value)
    instructions = (head.icounts[-1] + 1) if head else 0
    return Trace(trace.name, head, instructions)
