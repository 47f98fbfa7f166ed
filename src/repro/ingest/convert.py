"""Conversion of external traces into the internal v2 container.

The internal format (:mod:`repro.trace.io`) is built around in-memory
:class:`~repro.trace.stream.Trace` objects — fine for synthetic kernels,
fatal for multi-GB ChampSim traces.  This module provides the streaming
path: :class:`StreamingTraceWriter` emits the *identical* v2 byte layout
(same header, same delta-encoded records, same payload CRC) one event at
a time in constant memory, by reserving the header's count/CRC fields up
front and patching them with a single seek once the stream ends.  A
byte-equivalence test pins the two writers against each other.

:func:`ingest_trace` is the orchestration: decode an external file
(:mod:`repro.ingest.formats`), recover loop markers
(:mod:`repro.ingest.recover`), and stream the result to disk — returning
the content digest that names the trace in the ingest store and salts
every downstream cache key.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import IngestFormatError, TraceError
# The private struct definitions ARE the v2 wire format, and records
# are encoded by the in-memory writer's own `pack_record`: importing them
# (rather than redeclaring) keeps the two writers incapable of drifting
# apart silently, and the byte-equivalence test pins the coupling.
from repro.trace.columnar import event_row
from repro.trace.events import TraceEvent
from repro.trace.io import _COUNTS, _CRC, _HEADER, _MAGIC, _VERSION, pack_record
from repro.exec.keys import stable_hash
from repro.ingest.formats import decode
from repro.ingest.recover import RecoveryConfig, RecoveryStats, recover_blocks


@dataclass(frozen=True)
class WriterResult:
    """What one finished streaming write produced.

    ``records_sha256`` hashes the record section only (the part the CRC
    covers) — it is the content fingerprint :func:`trace_digest` builds
    on, deliberately independent of the embedded trace name.
    """

    path: Path
    events: int
    instructions: int
    crc32: int
    records_sha256: str
    bytes_written: int


class StreamingTraceWriter:
    """Write a v2 trace file one event at a time in bounded memory.

    Usage::

        with StreamingTraceWriter(path, name) as writer:
            for event in events:
                writer.append(event)
            result = writer.finalize(instructions)

    The file appears under ``path`` only when :meth:`finalize` succeeds
    (temp file + ``os.replace``, like :func:`repro.trace.io.write_trace`);
    leaving the ``with`` block without finalizing discards the temp file.
    """

    def __init__(self, path: str | Path, name: str) -> None:
        self._path = Path(path)
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TraceError(f"trace name too long to serialize: {name!r}")
        self._temporary = self._path.with_name(
            f".{self._path.name}.{os.getpid()}.tmp")
        self._handle = open(self._temporary, "wb")
        self._handle.write(_HEADER.pack(_MAGIC, _VERSION, len(name_bytes)))
        self._handle.write(name_bytes)
        self._counts_offset = self._handle.tell()
        # Reserve the counts + CRC fields; finalize() patches them.
        self._handle.write(_COUNTS.pack(0, 0))
        self._handle.write(_CRC.pack(0))
        self._crc = 0
        self._sha = hashlib.sha256()
        self._events = 0
        self._record_bytes = 0
        self._last_icount = 0
        self._done = False

    def append(self, event: TraceEvent) -> None:
        """Serialize one event (icounts must be non-decreasing)."""
        record = pack_record(self._events, self._last_icount, *event_row(event))
        self._handle.write(record)
        self._crc = zlib.crc32(record, self._crc)
        self._sha.update(record)
        self._record_bytes += len(record)
        self._events += 1
        self._last_icount = event.icount

    def finalize(self, instructions: int) -> WriterResult:
        """Patch the header, fsync, and publish the file atomically."""
        if self._done:
            raise TraceError("streaming writer already finalized or aborted")
        self._done = True
        self._handle.seek(self._counts_offset)
        self._handle.write(_COUNTS.pack(instructions, self._events))
        self._handle.write(_CRC.pack(self._crc & 0xFFFFFFFF))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._temporary, self._path)
        return WriterResult(
            path=self._path,
            events=self._events,
            instructions=instructions,
            crc32=self._crc & 0xFFFFFFFF,
            records_sha256=self._sha.hexdigest(),
            bytes_written=self._counts_offset + _COUNTS.size + _CRC.size
            + self._record_bytes,
        )

    def abort(self) -> None:
        """Discard the partial write; nothing appears under ``path``."""
        if self._done:
            return
        self._done = True
        self._handle.close()
        self._temporary.unlink(missing_ok=True)

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.abort()


def trace_digest(records_sha256: str, instructions: int, events: int) -> str:
    """Content digest of an ingested trace.

    Hashes the record payload plus the header counts — everything except
    the embedded name — so renaming an ingested trace keeps its digest
    and re-ingesting identical content is always digest-stable.
    """
    return stable_hash("ext-trace", records_sha256, instructions, events)


@dataclass(frozen=True)
class IngestResult:
    """Everything one ingestion produced: the file, its identity, and
    the recovery report."""

    source: Path
    format: str
    path: Path
    digest: str
    records_sha256: str
    instructions: int
    events: int
    accesses: int
    stats: RecoveryStats


def ingest_trace(
    source: str | Path,
    out_path: str | Path,
    *,
    trace_name: str,
    fmt: str | None = None,
    config: RecoveryConfig | None = None,
) -> IngestResult:
    """Decode ``source``, recover loop markers, and write a v2 trace.

    The whole pipeline is a single streaming pass — decoder, recovery,
    and writer are all generators/incremental, so peak memory is
    independent of the trace length.  ``fmt`` overrides file-name format
    detection; the CSV fallback automatically switches recovery to
    inferred back-edges (it has no branch records to go by).
    """
    source = Path(source)
    if fmt is None:
        from repro.ingest.formats import detect_format
        fmt = detect_format(source)
    if config is None:
        config = RecoveryConfig(infer_backedges=(fmt == "csv"))
    stats = RecoveryStats()
    with StreamingTraceWriter(out_path, trace_name) as writer:
        for event in recover_blocks(decode(source, fmt), config, stats):
            writer.append(event)
        if stats.accesses == 0:
            raise IngestFormatError(
                f"{source} decodes to zero memory accesses; there is "
                "nothing to simulate"
            )
        result = writer.finalize(stats.instructions)
    return IngestResult(
        source=source,
        format=fmt,
        path=result.path,
        digest=trace_digest(result.records_sha256, result.instructions,
                            result.events),
        records_sha256=result.records_sha256,
        instructions=result.instructions,
        events=result.events,
        accesses=stats.accesses,
        stats=stats,
    )
