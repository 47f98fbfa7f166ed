"""Round-trip and error-path tests for the binary trace format."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceError
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
from repro.trace.io import _read, read_trace, trace_to_bytes, write_trace
from repro.trace.stream import Trace


def trace_from_bytes(data: bytes) -> Trace:
    """Deserialize bytes from :func:`trace_to_bytes` with the decoder
    behind :func:`read_trace`, without its file-path context."""
    return _read(io.BytesIO(data))


def simple_trace():
    return Trace(
        "example",
        [
            BlockBegin(0, 3),
            MemoryAccess(1, 0x400010, 4096, False),
            MemoryAccess(2, 0x400020, 8192, True),
            BlockEnd(3, 3),
        ],
        instructions=42,
    )


class TestRoundTrip:
    def test_in_memory_round_trip(self):
        original = simple_trace()
        restored = trace_from_bytes(trace_to_bytes(original))
        assert restored.name == original.name
        assert restored.instructions == original.instructions
        assert restored.events == original.events

    def test_file_round_trip(self, tmp_path):
        original = simple_trace()
        path = tmp_path / "trace.bin"
        write_trace(original, path)
        restored = read_trace(path)
        assert restored.events == original.events

    def test_empty_trace_round_trip(self):
        restored = trace_from_bytes(trace_to_bytes(Trace("empty", [], 0)))
        assert restored.events == []
        assert restored.name == "empty"

    def test_unicode_name_round_trip(self):
        trace = Trace("bench-αβ", [], 5)
        assert trace_from_bytes(trace_to_bytes(trace)).name == trace.name


# Strategy for arbitrary well-formed event streams.
@st.composite
def traces(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    events = []
    icount = 0
    open_block = None
    for _ in range(count):
        icount += draw(st.integers(min_value=0, max_value=1000))
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            events.append(
                MemoryAccess(
                    icount,
                    draw(st.integers(min_value=0, max_value=2**48 - 1)),
                    draw(st.integers(min_value=0, max_value=2**40)),
                    draw(st.booleans()),
                )
            )
        elif kind == 1 and open_block is None:
            open_block = draw(st.integers(min_value=0, max_value=2**20))
            events.append(BlockBegin(icount, open_block))
        elif kind == 2 and open_block is not None:
            events.append(BlockEnd(icount, open_block))
            open_block = None
    if open_block is not None:
        events.append(BlockEnd(icount, open_block))
    return Trace("prop", events, icount + draw(st.integers(0, 100)))


class TestRoundTripProperty:
    @settings(max_examples=50)
    @given(traces())
    def test_arbitrary_traces_survive(self, trace):
        restored = trace_from_bytes(trace_to_bytes(trace))
        assert restored.events == trace.events
        assert restored.instructions == trace.instructions


class TestErrorPaths:
    def test_bad_magic_rejected(self):
        data = trace_to_bytes(simple_trace())
        with pytest.raises(TraceError, match="magic"):
            trace_from_bytes(b"XXXX" + data[4:])

    def test_bad_version_rejected(self):
        data = bytearray(trace_to_bytes(simple_trace()))
        data[4] = 0xEE
        with pytest.raises(TraceError, match="version"):
            trace_from_bytes(bytes(data))

    def test_truncated_stream_rejected(self):
        data = trace_to_bytes(simple_trace())
        with pytest.raises(TraceError):
            trace_from_bytes(data[:-4])

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceError):
            trace_from_bytes(b"CB")

    def test_unknown_tag_rejected(self):
        import struct
        import zlib

        data = bytearray(trace_to_bytes(simple_trace()))
        # First record tag sits right after header + name + counts + CRC.
        crc_offset = 8 + len("example") + 16
        offset = crc_offset + 4
        data[offset] = 99
        # Re-stamp the checksum so the tag check (not the CRC) fires.
        data[crc_offset:offset] = struct.pack(
            "<I", zlib.crc32(bytes(data[offset:])) & 0xFFFFFFFF
        )
        with pytest.raises(TraceError, match="tag"):
            trace_from_bytes(bytes(data))

    def test_payload_corruption_caught_by_checksum(self):
        data = bytearray(trace_to_bytes(simple_trace()))
        data[-3] ^= 0x40  # flip one bit inside the record section
        with pytest.raises(TraceError, match="checksum"):
            trace_from_bytes(bytes(data))


class TestErrorContext:
    """Corrupt files must produce diagnosable, path-carrying errors."""

    def test_read_trace_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"CB")
        with pytest.raises(TraceError, match="truncated trace header") as info:
            read_trace(path)
        assert str(path) in str(info.value)

    def test_garbage_bytes_become_typed_error_with_path(self, tmp_path):
        path = tmp_path / "garbage.trace"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(TraceError) as info:
            read_trace(path)
        assert str(path) in str(info.value)

    def test_short_name_field_is_diagnosed_not_opaque(self):
        # A header that declares an 8-byte name but truncates after 3
        # used to surface as a bare struct.error from the counts read.
        data = trace_to_bytes(simple_trace())
        truncated = data[: 8 + 3]
        with pytest.raises(TraceError, match="name field declares"):
            trace_from_bytes(truncated)

    def test_non_utf8_name_field_is_typed(self):
        data = bytearray(trace_to_bytes(simple_trace()))
        data[8] = 0xFF  # clobber first byte of the name "example"
        with pytest.raises(TraceError, match="not UTF-8"):
            trace_from_bytes(bytes(data))

    def test_non_monotonic_icount_rejected_at_write_by_index(self):
        trace = Trace(
            "t",
            [MemoryAccess(5, 0x10, 4096, False),
             MemoryAccess(2, 0x10, 8192, False)],
            instructions=6,
        )
        with pytest.raises(TraceError, match="event 1"):
            trace_to_bytes(trace)
