"""Binary trace serialization.

The format is a small custom container:

``header``  — magic ``b"CBWS"``, version u16, name length u16, name bytes,
              instruction total u64, event count u64, payload CRC32 u32
              (version ≥ 2).
``records`` — one tag byte per event followed by the event payload.
              Memory accesses store the icount *delta* from the previous
              event as a u32, which keeps files compact for long traces.
              Deltas are unsigned, so a stored trace cannot even encode a
              non-monotonic icount; inputs that carry absolute icounts
              (external traces) are validated at their decode boundary in
              :mod:`repro.ingest` instead, and the writers here reject a
              decreasing icount by event index before it reaches disk.

Round-tripping is exact: ``read_trace(path)`` returns a trace whose
columns equal those passed to ``write_trace``.  Both directions work on
column rows, with no per-event objects.

Integrity: version 2 headers carry a CRC32 of the record section, so any
truncation or bit flip in the payload is detected at read time and
surfaces as :class:`TraceError` (``repro verify-artifacts`` reports it
through :func:`verify_trace_file`).  Version 1
files (no checksum) still read for backward compatibility.  Writes go
through a temp file + ``os.replace`` so a crash mid-write can never leave
a half-written file under the final name.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO

from repro import obs
from repro.common.errors import TraceError
from repro.trace.columnar import EventColumns
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace

_MAGIC = b"CBWS"
_VERSION = 2
_CHECKSUM_VERSIONS = (2,)

_HEADER = struct.Struct("<4sHH")
_COUNTS = struct.Struct("<QQ")
_CRC = struct.Struct("<I")
_MEM_RECORD = struct.Struct("<BIQQB")  # tag, icount delta, pc, address, is_write
_BLOCK_RECORD = struct.Struct("<BII")  # tag, icount delta, block id
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialize ``trace`` to ``path`` atomically (temp + rename + fsync)."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with obs.phase("trace.write"), open(temporary, "wb") as handle:
            _write(trace, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def pack_record(index: int, last_icount: int, kind: int, icount: int,
                pc: int, payload: int, write: int) -> bytes:
    """The record of event ``index`` (one column row), whose predecessor
    committed at ``last_icount``; both writers encode through here."""
    delta = icount - last_icount
    if delta < 0:
        raise TraceError(
            f"event {index}: icount decreases ({icount} < "
            f"{last_icount}); cannot serialize a non-monotonic trace"
        )
    if delta > _U32_MAX:
        raise TraceError(f"event {index}: icount jump {delta} exceeds the "
                         "format's u32 delta field")
    if kind == MEMORY_ACCESS:
        if pc > _U64_MAX or payload > _U64_MAX:
            raise TraceError(f"event {index}: pc/address exceeds u64")
        return _MEM_RECORD.pack(MEMORY_ACCESS, delta, pc, payload, write)
    if kind in (BLOCK_BEGIN, BLOCK_END):
        if payload > _U32_MAX:
            raise TraceError(f"event {index}: block id exceeds u32")
        return _BLOCK_RECORD.pack(kind, delta, payload)
    raise TraceError(f"unknown event kind {kind}")


def _pack_records(trace: Trace) -> bytes:
    columns = trace.events
    last_icounts = (0, *columns.icounts[:-1])
    return b"".join(map(pack_record, range(len(columns)), last_icounts,
                        *columns.arrays()))


def _write(trace: Trace, handle: BinaryIO) -> None:
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise TraceError(f"trace name too long to serialize: {trace.name!r}")
    records = _pack_records(trace)
    handle.write(_HEADER.pack(_MAGIC, _VERSION, len(name_bytes)))
    handle.write(name_bytes)
    handle.write(_COUNTS.pack(trace.instructions, len(trace)))
    handle.write(_CRC.pack(zlib.crc32(records) & 0xFFFFFFFF))
    handle.write(records)


def read_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`write_trace`.

    Every failure mode — truncated header, short name field, bad
    checksum, garbage bytes that leak a ``struct.error`` — surfaces as
    :class:`TraceError` with the file path in the message, so a corrupt
    cache entry is diagnosable from the error alone.
    """
    with obs.phase("trace.read"), open(path, "rb") as handle:
        try:
            trace = _read(handle)
        except TraceError as error:
            raise TraceError(f"{path}: {error}") from None
        except (struct.error, UnicodeDecodeError) as error:
            # Defensive: garbage length fields can, in principle, drive
            # the decoder into a raw unpack/decode failure; fold it into
            # the typed taxonomy instead of leaking an opaque error.
            raise TraceError(f"{path}: corrupt trace file ({error})") from error
    obs.add("trace.read.events", len(trace))
    return trace


def _read(handle: BinaryIO) -> Trace:
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TraceError("truncated trace header")
    magic, version, name_length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TraceError(f"bad magic {magic!r}; not a CBWS trace file")
    if version not in (1, *_CHECKSUM_VERSIONS):
        raise TraceError(f"unsupported trace version {version}")
    name_bytes = handle.read(name_length)
    if len(name_bytes) < name_length:
        raise TraceError(
            f"truncated trace header: name field declares {name_length} "
            f"byte(s), file has {len(name_bytes)}"
        )
    try:
        name = name_bytes.decode("utf-8")
    except UnicodeDecodeError as error:
        raise TraceError(f"trace name field is not UTF-8 ({error})") from None
    counts = handle.read(_COUNTS.size)
    if len(counts) < _COUNTS.size:
        raise TraceError("truncated trace counts")
    instructions, event_count = _COUNTS.unpack(counts)

    if version in _CHECKSUM_VERSIONS:
        crc_bytes = handle.read(_CRC.size)
        if len(crc_bytes) < _CRC.size:
            raise TraceError("truncated trace checksum")
        (expected_crc,) = _CRC.unpack(crc_bytes)
        records = handle.read()
        if zlib.crc32(records) & 0xFFFFFFFF != expected_crc:
            raise TraceError(
                f"trace payload checksum mismatch for {name!r}: the file "
                "is truncated or corrupt"
            )
        body: BinaryIO = io.BytesIO(records)
    else:
        body = handle

    rows: list[int] = []
    extend = rows.extend
    icount = 0
    for _ in range(event_count):
        tag_byte = body.read(1)
        if not tag_byte:
            raise TraceError("trace file truncated mid-stream")
        tag = tag_byte[0]
        if tag == MEMORY_ACCESS:
            payload = body.read(_MEM_RECORD.size - 1)
            if len(payload) < _MEM_RECORD.size - 1:
                raise TraceError("truncated memory access record")
            delta, pc, address, is_write = struct.unpack("<IQQB", payload)
            icount += delta
            extend((MEMORY_ACCESS, icount, pc, address, 1 if is_write else 0))
        elif tag in (BLOCK_BEGIN, BLOCK_END):
            payload = body.read(_BLOCK_RECORD.size - 1)
            if len(payload) < _BLOCK_RECORD.size - 1:
                raise TraceError("truncated block marker record")
            delta, block_id = struct.unpack("<II", payload)
            icount += delta
            extend((tag, icount, 0, block_id, 0))
        else:
            raise TraceError(f"unknown record tag {tag}")
    return Trace(name, EventColumns(rows), instructions)


def verify_trace_file(path: str | Path) -> str | None:
    """Why a trace file is unusable, or None when it verifies cleanly.

    Covers every way a file can be unusable: truncated mid-stream,
    garbage bytes, wrong version, checksum mismatch, unreadable.
    """
    try:
        read_trace(path)
        return None
    except (TraceError, OSError, UnicodeDecodeError, struct.error) as error:
        return str(error)


def trace_to_bytes(trace: Trace) -> bytes:
    """Serialize a trace to an in-memory byte string (testing helper)."""
    buffer = io.BytesIO()
    _write(trace, buffer)
    return buffer.getvalue()
