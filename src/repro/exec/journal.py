"""Write-ahead run journal: crash-safe record of one grid execution.

Long sweeps die — a worker OOMs, the machine reboots, someone hits ^C —
and without a durable record the whole campaign restarts from zero.  The
journal fixes that: before any work runs, the *intent* (the full cell
list and its content fingerprint) is committed to an append-only JSONL
file, and every task outcome (done / quarantined / workload degraded) is
appended behind it.  ``repro run --resume <run-id>``
replays the journal, re-attaches completed cells through the result
cache, carries forward quarantine and degradation decisions, and
executes only the remainder.

Line format — one record per line, self-checking::

    <crc32 hex> <canonical JSON payload>\n

The CRC makes torn writes detectable: a crash mid-append leaves a final
line whose checksum (or JSON) does not verify, and :func:`replay` stops
at the first such line, treating everything before it as the durable
truth.  Appends are atomic-enough by construction: a record is only
trusted once its full line round-trips.

Durability: each record is written and flushed to the kernel, never
fsync'd.  A flushed record survives ``kill -9``, an OOM kill and
``os._exit``; only a kernel crash or power cut can lose it, and then
the lost tail reads as torn or missing and resume re-runs (or re-finds
in the result cache) the cells it named.  DESIGN.md §8 tabulates what
each write point can lose.

Record kinds: ``run-started`` (intent: cells + fingerprint + params),
``run-resumed``, ``task-done`` (one completed cell),
``task-quarantined``, ``workload-degraded``, ``run-finished``.  Older
journals also hold a cell-less ``task-done`` per trace build; replay
counts it as a record and reads nothing from it.
"""

from __future__ import annotations

import json
import time
import uuid
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable

from repro.common.errors import JournalError, raise_if_disk_full
from repro.exec import faults
from repro.exec.keys import stable_hash

#: Version of the journal record layout, stamped into every
#: ``run-started`` record; replay refuses newer layouts.
JOURNAL_SCHEMA_VERSION = 1

#: Subdirectory of the cache dir holding one directory per run.
RUNS_DIRNAME = "runs"


def run_fingerprint(
    cells: Iterable[tuple[str, str]],
    scale: float,
    budget_fraction: float,
    seed: int,
    config: Any,
) -> str:
    """Content fingerprint of one grid request.

    Two runs with the same fingerprint would execute identical work, so
    a resume is only legal when fingerprints match — resuming a 30%
    -budget journal into a full-budget sweep must fail loudly, not
    silently mix results.
    """
    return stable_hash(
        "run", sorted(cells), scale, budget_fraction, seed, config
    )


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def _encode(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")
    return f"{crc} {payload}\n".encode("utf-8")


def _decode(line: str) -> dict[str, Any] | None:
    """One record, or None for a torn/corrupt line."""
    crc_text, separator, payload = line.rstrip("\n").partition(" ")
    if not separator or len(crc_text) != 8:
        return None
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Every trusted record of one journal, plus the torn-line count.

    Shared by grid-run replay and the campaign engine's own journal:
    records are trusted up to the first line that fails its CRC or JSON
    check; everything from that point on was mid-write when the process
    died and is discarded.  Unreadable files raise
    :class:`JournalError` (missing file included).
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except FileNotFoundError:
        raise JournalError(f"no run journal at {path}") from None
    except OSError as error:
        raise JournalError(f"cannot read journal {path}: {error}") from None
    records: list[dict[str, Any]] = []
    torn = 0
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        record = _decode(line)
        if record is None:
            torn = len(lines) - index
            break
        records.append(record)
    return records, torn


def _open_for_append(path: Path) -> BinaryIO:
    """Open a journal for appending, first cutting off any torn tail.

    A record appended behind a torn line would be glued onto it, and
    replay stops at the first bad line, so everything a resumed run
    journals would be lost.  The cut keeps every record that
    :func:`read_records` trusts, bar a last one that lacks its newline.
    """
    handle = open(path, "ab")
    if handle.tell():
        trusted = 0
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.endswith(b"\n") or (line.strip() and _decode(
                    line.decode("utf-8", errors="replace")) is None):
                break
            trusted += len(line)
        if trusted < handle.tell():
            handle.truncate(trusted)
    return handle


class RunJournal:
    """Append-only journal of one run's task outcomes."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._sequence = 0

    @classmethod
    def for_run(cls, runs_root: str | Path, run_id: str) -> "RunJournal":
        """The journal of ``run_id`` under ``<runs_root>/<run_id>/``."""
        return cls(Path(runs_root) / run_id / "journal.jsonl")

    def append(self, kind: str, **fields: Any) -> None:
        """Append one record (write + flush, no fsync).

        The fault-injection site ``journal.append`` can tear this write
        in half: the truncated bytes are flushed first and the injected
        crash raised after, reproducing a mid-append power cut.

        A full disk (``ENOSPC``/``EDQUOT``) escalates to
        :class:`~repro.common.errors.DiskFullError` — retrying an
        append against a full filesystem is a retry storm, not recovery.
        """
        self._sequence += 1
        record = {"kind": kind, "seq": self._sequence, "t": time.time()}
        record.update(fields)
        data, post_error = faults.mangle("journal.append", _encode(record))
        try:
            if self._handle is None:
                self._handle = _open_for_append(self.path)
            self._handle.write(data)
            self._handle.flush()
        except OSError as error:
            # Closing re-flushes the buffered bytes and fails the same
            # way; the first error is the one to classify.
            with suppress(OSError):
                self.close()
            raise_if_disk_full(error, f"journal record in {self.path.name}")
            raise
        if post_error is not None:
            self.close()
            raise post_error

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- convenience writers -------------------------------------------------

    def run_started(
        self,
        run_id: str,
        fingerprint: str,
        cells: Iterable[tuple[str, str]],
        **params: Any,
    ) -> None:
        self.append(
            "run-started",
            schema=JOURNAL_SCHEMA_VERSION,
            run_id=run_id,
            fingerprint=fingerprint,
            cells=[list(cell) for cell in cells],
            **params,
        )

    def task_done(self, name: str, kind: str,
                  cell: tuple[str, str] | None = None,
                  key: str | None = None, source: str = "run") -> None:
        self.append("task-done", task=name, task_kind=kind,
                    cell=list(cell) if cell else None, key=key, source=source)

    def task_quarantined(self, name: str, kind: str, reason: str,
                         attempts: int, classification: str,
                         cell: tuple[str, str] | None = None) -> None:
        self.append("task-quarantined", task=name, task_kind=kind,
                    reason=reason, attempts=attempts,
                    classification=classification,
                    cell=list(cell) if cell else None)

    def workload_degraded(self, workload: str, reason: str,
                          failures: int) -> None:
        self.append("workload-degraded", workload=workload, reason=reason,
                    failures=failures)

    def run_finished(self, status: str, **counts: Any) -> None:
        self.append("run-finished", status=status, **counts)


@dataclass
class RunReplay:
    """Everything :func:`replay` can reconstruct from one journal."""

    path: Path
    run_id: str | None = None
    fingerprint: str | None = None
    cells: list[tuple[str, str]] = field(default_factory=list)
    #: Completed simulation cells mapped to their result-cache keys.
    completed: dict[tuple[str, str], str | None] = field(default_factory=dict)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    degraded: dict[str, str] = field(default_factory=dict)
    status: str | None = None
    records: int = 0
    torn_lines: int = 0
    resumes: int = 0
    started_at: float | None = None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.status is not None

    @property
    def quarantined_cells(self) -> set[tuple[str, str]]:
        return {
            tuple(entry["cell"])
            for entry in self.quarantined
            if entry.get("cell")
        }

    def describe_status(self) -> str:
        """Human status: complete / degraded / interrupted."""
        if self.status is not None:
            return self.status
        return "interrupted"


def replay(path: str | Path) -> RunReplay:
    """Reconstruct run state from a journal, tolerating a torn tail.

    Records are trusted up to the first line that fails its CRC or JSON
    check; everything at or after that point was mid-write when the
    process died and is discarded (and counted in ``torn_lines``).
    """
    path = Path(path)
    state = RunReplay(path=path)
    records, state.torn_lines = read_records(path)

    for record in records:
        state.records += 1
        kind = record.get("kind")
        if kind == "run-started":
            schema = record.get("schema", 0)
            if schema > JOURNAL_SCHEMA_VERSION:
                raise JournalError(
                    f"journal {path} uses schema {schema}, newer than "
                    f"this build ({JOURNAL_SCHEMA_VERSION})"
                )
            state.run_id = record.get("run_id")
            state.fingerprint = record.get("fingerprint")
            state.cells = [tuple(cell) for cell in record.get("cells", [])]
            state.started_at = record.get("t")
            state.params = {
                key: value for key, value in record.items()
                if key not in ("kind", "seq", "t", "schema", "run_id",
                               "fingerprint", "cells")
            }
            state.status = None  # a restart reopens the run
        elif kind == "run-resumed":
            state.resumes += 1
            state.status = None
        elif kind == "task-done":
            if record.get("cell"):
                state.completed[tuple(record["cell"])] = record.get("key")
        elif kind == "task-quarantined":
            state.quarantined.append(record)
        elif kind == "workload-degraded":
            state.degraded[record["workload"]] = record.get("reason", "")
        elif kind == "run-finished":
            state.status = record.get("status")
    return state


@dataclass
class RunSummary:
    """One row of ``repro runs list``."""

    run_id: str
    status: str
    cells_done: int
    cells_total: int
    degraded: int
    quarantined: int
    torn_lines: int
    started_at: float | None


def list_runs(
    runs_root: str | Path,
    on_skip: "Callable[[str, str], None] | None" = None,
) -> list[RunSummary]:
    """Summaries of every journaled run under ``runs_root``, newest first.

    A corrupt, unreadable, or empty journal directory is *skipped*, not
    fatal — one damaged run must never hide every other run from
    ``repro runs list``.  Each skip is reported through ``on_skip(name,
    reason)`` when supplied (the CLI prints a warning per skipped
    directory).
    """
    root = Path(runs_root)
    summaries: list[RunSummary] = []
    if not root.is_dir():
        return summaries

    def skip(entry: Path, reason: str) -> None:
        if on_skip is not None:
            on_skip(entry.name, reason)

    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        journal_path = entry / "journal.jsonl"
        if not journal_path.is_file():
            skip(entry, "no journal.jsonl")
            continue
        try:
            state = replay(journal_path)
        except JournalError as error:
            skip(entry, str(error))
            continue
        if state.records == 0:
            skip(entry, "journal is empty or wholly corrupt")
            continue
        summaries.append(RunSummary(
            run_id=state.run_id or entry.name,
            status=state.describe_status(),
            cells_done=len(state.completed),
            cells_total=len(state.cells),
            degraded=len(state.degraded),
            quarantined=len(state.quarantined),
            torn_lines=state.torn_lines,
            started_at=state.started_at,
        ))
    summaries.sort(key=lambda s: s.started_at or 0.0, reverse=True)
    return summaries


def load_run(runs_root: str | Path, run_id: str) -> RunReplay:
    """Replay one run by id; raises :class:`JournalError` if absent."""
    path = Path(runs_root) / run_id / "journal.jsonl"
    if not path.is_file():
        known = ", ".join(s.run_id for s in list_runs(runs_root)) or "none"
        raise JournalError(
            f"no journal for run {run_id!r} under {runs_root} "
            f"(known runs: {known})"
        )
    return replay(path)
