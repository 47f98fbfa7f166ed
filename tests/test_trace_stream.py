"""Tests for the Trace container: validation and statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceError
from repro.trace.columnar import EventColumns
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
from repro.trace.stream import Trace


def mem(icount, addr, write=False, pc=0x400000):
    return MemoryAccess(icount, pc, addr, write)


class TestConstruction:
    def test_instructions_below_last_event_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [mem(100, 0)], instructions=50)

    def test_empty_trace_is_fine(self):
        trace = Trace("t", [], instructions=0)
        trace.validate()
        assert len(trace) == 0

    def test_indexing_and_iteration(self):
        events = [mem(1, 0), mem(2, 64)]
        trace = Trace("t", events, 10)
        assert trace[0] == events[0]
        assert list(trace) == events
        assert list(trace.memory_events()) == events


class TestValidation:
    def test_decreasing_icount_rejected(self):
        trace = Trace("t", [mem(5, 0), mem(3, 64)], 10)
        with pytest.raises(TraceError, match="decreases"):
            trace.validate()

    def test_nested_blocks_rejected(self):
        trace = Trace("t", [BlockBegin(0, 1), BlockBegin(1, 2)], 10)
        with pytest.raises(TraceError, match="nested"):
            trace.validate()

    def test_end_without_begin_rejected(self):
        trace = Trace("t", [BlockEnd(0, 1)], 10)
        with pytest.raises(TraceError, match="without"):
            trace.validate()

    def test_mismatched_block_id_rejected(self):
        trace = Trace("t", [BlockBegin(0, 1), BlockEnd(1, 2)], 10)
        with pytest.raises(TraceError, match="does not match"):
            trace.validate()

    def test_unclosed_block_rejected(self):
        trace = Trace("t", [BlockBegin(0, 1), mem(1, 0)], 10)
        with pytest.raises(TraceError, match="never closed"):
            trace.validate()

    def test_wellformed_blocks_pass(self):
        trace = Trace(
            "t",
            [
                BlockBegin(0, 1), mem(1, 0), BlockEnd(2, 1),
                BlockBegin(3, 2), mem(4, 64), BlockEnd(5, 2),
            ],
            6,
        )
        trace.validate()


#: Rows (kind, icount, pc, payload, write) of malformed traces, and the
#: message of their first violation.
_MALFORMED = [
    ([(0, 5, 0, 0, 0), (0, 3, 0, 64, 0)],
     "trace 't': icount decreases at event 1 (3 < 5)"),
    ([(1, 0, 0, 1, 0), (1, 1, 0, 2, 0)],
     "trace 't': nested BLOCK_BEGIN at event 1 (block 1 still open)"),
    ([(2, 0, 0, 1, 0)],
     "trace 't': BLOCK_END without BLOCK_BEGIN at event 0"),
    ([(1, 0, 0, 1, 0), (2, 1, 0, 2, 0)],
     "trace 't': BLOCK_END id 2 does not match open block 1 at event 1"),
    ([(1, 0, 0, 1, 0), (0, 1, 0, 0, 0)],
     "trace 't': block 1 never closed"),
    ([(1, 0, 0, 1, 0), (2, 1, 0, 1, 0), (2, 2, 0, 1, 0), (0, 1, 0, 0, 0)],
     "trace 't': BLOCK_END without BLOCK_BEGIN at event 2"),
]


class TestColumnValidation:
    """The vectorized scan hands a malformed trace to the per-event walk,
    so a trace built from columns names the same first violation as one
    built from event objects."""

    @pytest.mark.parametrize("rows, message", _MALFORMED)
    def test_same_message_from_columns(self, rows, message):
        flat = [value for row in rows for value in row]
        from_columns = Trace("t", EventColumns(flat), 10)
        from_events = Trace("t", list(EventColumns(flat)), 10)
        for trace in (from_columns, from_events):
            with pytest.raises(TraceError) as error:
                trace.validate()
            assert str(error.value) == message

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(-1, 3),
                                   st.integers(0, 2)), max_size=12))
    def test_scan_agrees_with_an_event_walk(self, rows):
        icount, open_block, valid, flat = 20, None, True, []
        for kind, step, block_id in rows:
            icount += step
            valid &= step >= 0 or not flat
            if kind == 1:
                valid &= open_block is None
                open_block = block_id
            elif kind == 2:
                valid &= open_block == block_id
                open_block = None
            flat += [kind, icount, 0, block_id, 0]
        valid &= open_block is None
        trace = Trace("t", EventColumns(flat), 99)
        if valid:
            trace.validate()
        else:
            with pytest.raises(TraceError):
                trace.validate()

    def test_field_beyond_u64_is_a_trace_error(self):
        with pytest.raises(TraceError, match="unsigned 64-bit"):
            Trace("t", [mem(0, -64)], 10)


class TestStats:
    def test_counts(self):
        trace = Trace(
            "t",
            [
                BlockBegin(0, 0),
                mem(1, 0), mem(2, 64, write=True),
                BlockEnd(4, 0),
                mem(6, 128),
            ],
            20,
        )
        stats = trace.stats()
        assert stats.memory_accesses == 3
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.blocks == 1
        assert stats.block_instructions == 4
        assert stats.distinct_block_ids == 1
        assert stats.loop_fraction == pytest.approx(0.2)

    def test_empty_trace_loop_fraction_zero(self):
        assert Trace("t", [], 0).stats().loop_fraction == 0.0

    def test_distinct_block_ids(self):
        events = []
        icount = 0
        for block_id in (0, 1, 0):
            events.append(BlockBegin(icount, block_id))
            icount += 1
            events.append(mem(icount, 0))
            icount += 1
            events.append(BlockEnd(icount, block_id))
        trace = Trace("t", events, icount)
        assert trace.stats().distinct_block_ids == 2
        assert trace.stats().blocks == 3

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9),
                                   st.integers(0, 3), st.booleans())))
    def test_matches_an_event_walk_on_any_marker_order(self, rows):
        icount = 0
        events = []
        for kind, step, block_id, write in rows:
            icount += step
            events.append(mem(icount, 64 * block_id, write) if kind == 0
                          else (BlockBegin, BlockEnd)[kind - 1](icount, block_id))
        loads = stores = blocks = inside = 0
        begin = None
        for event in events:
            if isinstance(event, MemoryAccess):
                stores += event.is_write
                loads += not event.is_write
            elif isinstance(event, BlockBegin):
                begin = event.icount
            else:
                blocks += 1
                if begin is not None:
                    inside += event.icount - begin
                    begin = None
        stats = Trace("t", events, icount).stats()
        assert (stats.loads, stats.stores, stats.blocks,
                stats.block_instructions, stats.distinct_block_ids) == (
            loads, stores, blocks, inside,
            len({e.block_id for e in events if isinstance(e, BlockBegin)}))
