"""Tests for Algorithm 1 — the CBWS differential predictor."""

import dataclasses
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import CbwsOracle
from repro.core import predictor as predictor_module
from repro.core.history import history_tag
from repro.core.predictor import (
    CbwsConfig,
    CbwsPredictor,
    PredictorStats,
    _drive,
    predict_trace,
)
from repro.core.prefetcher import CbwsPrefetcher
from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
)
from repro.trace.stream import Trace


def block_columns(lines, block_id=0):
    """The ``kinds``/``payloads`` columns of one block over ``lines``,
    at line size 1 (the payload is the line itself)."""
    kinds = array("B", [BLOCK_BEGIN] + [MEMORY_ACCESS] * len(lines)
                  + [BLOCK_END])
    payloads = array("Q", [block_id, *lines, block_id])
    return kinds, payloads


def run_block(predictor, lines, block_id=0):
    """One block through Algorithm 1, continuing ``predictor``'s state;
    the lines that block's BLOCK_END predicts."""
    return _drive(predictor, *block_columns(lines, block_id), 0).block(0)


def stencil_block(n, stride=1024):
    """The Figure 3 pattern: constant lines plus strided streams."""
    return [80, 81, 6515 + stride * n, 4467 + stride * n, 5499 + stride * n]


class TestConfig:
    def test_defaults_match_table2(self):
        config = CbwsConfig()
        assert config.max_vector_members == 16
        assert config.max_step == 4
        assert config.table_entries == 16
        assert config.stride_bits == 16
        assert config.hash_bits == 12

    def test_invalid_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            CbwsConfig(max_step=0)
        with pytest.raises(ConfigError):
            CbwsConfig(predict_steps=5, max_step=4)
        with pytest.raises(ConfigError):
            CbwsConfig(max_vector_members=0)

    @pytest.mark.parametrize("entries", [0, -3])
    def test_empty_table_rejected(self, entries):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="table_entries"):
            CbwsConfig(table_entries=entries)
        assert CbwsConfig(table_entries=1).table_entries == 1

    @pytest.mark.parametrize("name, message", [
        ("cbws[table_entries=0]", "table_entries must be positive"),
        ("cbws+sms[table_entries=0]", "table_entries must be positive"),
        ("cbws[max_step=0]", "max_step must be positive"),
        ("cbws+sms[max_step=-1]", "max_step must be positive"),
    ])
    def test_registry_names_the_bad_parameter(self, name, message):
        from repro.common.errors import ConfigError
        from repro.harness.registry import make_prefetcher

        with pytest.raises(ConfigError, match=message):
            make_prefetcher(name)


class TestWarmup:
    def test_first_blocks_predict_nothing(self):
        predictor = CbwsPredictor()
        assert run_block(predictor, stencil_block(0)) == []
        # The second block trains but its history has no repeat yet.
        assert run_block(predictor, stencil_block(1)) == []

    def test_constant_pattern_predicts_after_warmup(self):
        predictor = CbwsPredictor()
        predictions = []
        for n in range(8):
            predictions = run_block(predictor, stencil_block(n))
        assert predictions, "steady pattern must eventually predict"

    def test_steady_predictions_are_future_working_sets(self):
        predictor = CbwsPredictor()
        for n in range(10):
            predictions = run_block(predictor, stencil_block(n))
        future = set()
        for k in range(10, 15):
            future.update(stencil_block(k))
        assert set(predictions) <= future
        # The 1-step prediction (the very next block) must be covered.
        assert set(stencil_block(10)) <= set(predictions) | set(stencil_block(9))


class TestStatistics:
    def test_blocks_counted(self):
        predictor = CbwsPredictor()
        for n in range(5):
            run_block(predictor, stencil_block(n))
        assert predictor.stats.blocks_completed == 5

    def test_overflow_counted(self):
        predictor = CbwsPredictor(CbwsConfig(max_vector_members=4))
        run_block(predictor, list(range(100, 110)))
        assert predictor.stats.blocks_overflowed == 1
        assert predictor.last_block_overflowed

    def test_hit_rate_grows_on_regular_stream(self):
        predictor = CbwsPredictor()
        for n in range(20):
            run_block(predictor, stencil_block(n))
        assert predictor.stats.hit_rate > 0.3

    def test_random_blocks_rarely_hit(self):
        import random

        rng = random.Random(42)
        predictor = CbwsPredictor()
        for _ in range(20):
            run_block(predictor, [rng.randrange(1 << 30) for _ in range(5)])
        assert predictor.stats.hit_rate < 0.2


class TestBlockIdHandling:
    def test_block_id_change_flushes_history(self):
        predictor = CbwsPredictor()
        for n in range(8):
            run_block(predictor, stencil_block(n), block_id=0)
        # Switching to a different static loop flushes the predecessor
        # CBWSs and the shift registers (the history table is kept: see
        # test_block_id_change_keeps_the_table).
        run_block(predictor, [1, 2, 3], block_id=1)
        assert list(predictor.last_blocks) == [(1, 2, 3)]  # only the new block

    def test_block_id_change_keeps_the_table(self):
        """The history table survives a block-id switch, so a new loop's
        first block can predict from the old loop's entries.

        Open question (DESIGN.md §6): whether a new loop should start
        from an empty table.  Here the new block's step-1 register holds
        one empty-differential hash, as the old loop's did after its
        first block, so its tag finds the old loop's first step-1
        differential (0, 0, 1024, 1024, 1024) and predicts from it.
        """
        predictor = CbwsPredictor()
        for n in range(8):
            run_block(predictor, stencil_block(n), block_id=0)
        table = dict(predictor.table)
        assert run_block(predictor, [1, 2, 3], block_id=1) == [1, 2, 1027]
        assert predictor.table == table
        assert predictor.confident

    def test_same_block_id_keeps_history(self):
        predictor = CbwsPredictor()
        run_block(predictor, stencil_block(0))
        run_block(predictor, stencil_block(1))
        assert len(predictor.last_blocks) == 2


class TestDivergence:
    def test_shrinking_blocks_align_prefix(self):
        predictor = CbwsPredictor()
        run_block(predictor, [100, 200, 300])
        run_block(predictor, [101, 201])  # shorter: branch divergence
        # Differentials were computed over the aligned prefix only; no
        # crash, and history contains both CBWSs.
        assert len(predictor.last_blocks) == 2
        assert list(predictor.table.values()) == [(1, 1)]

    def test_empty_block_is_harmless(self):
        predictor = CbwsPredictor()
        run_block(predictor, [])
        run_block(predictor, [5])
        assert predictor.stats.blocks_completed == 2


class TestStrideTruncation:
    def test_large_strides_wrap_to_16_bits(self):
        """Strides beyond 16 bits truncate, as in hardware — the
        prediction is then wrong but bounded."""
        predictor = CbwsPredictor()
        huge = 1 << 20
        for n in range(6):
            predictions = run_block(predictor, [100 + huge * n])
        for line in predictions:
            assert 0 <= line < (1 << 32)


class TestHistoryState:
    def test_registers_bounded_by_depth(self):
        predictor = CbwsPredictor(CbwsConfig(history_depth=2))
        for n in range(6):
            run_block(predictor, stencil_block(n))
        assert all(len(register) == 2 for register in predictor.registers)

    def test_tags_follow_registers(self):
        config = CbwsConfig()
        predictor = CbwsPredictor(config)
        for n in range(6):
            run_block(predictor, stencil_block(n * n))
        assert predictor.tags == [
            history_tag(register, config.hash_bits, config.tag_bits)
            for register in predictor.registers
        ]

    def test_block_switch_empties_history(self):
        predictor = CbwsPredictor()
        for n in range(8):
            run_block(predictor, stencil_block(n))
        assert predictor.confident
        # A pass that ends on BLOCK_BEGIN(1) leaves block 1 open.
        _drive(predictor, array("B", [BLOCK_BEGIN]), array("Q", [1]), 0)
        assert not predictor.confident
        assert predictor.registers == [()] * 4
        assert predictor.tags == [history_tag(())] * 4
        assert len(predictor.last_blocks) == 0

    def test_state_does_not_grow_with_the_trace(self):
        import random

        rng = random.Random(3)
        config = CbwsConfig(max_vector_members=4)
        predictor = CbwsPredictor(config)
        for _ in range(300):
            run_block(predictor, [rng.randrange(1 << 20) for _ in range(6)])
        assert len(predictor.table) <= config.table_entries
        assert len(predictor.last_blocks) <= config.max_step
        assert all(len(block) <= config.max_vector_members
                   for block in predictor.last_blocks)
        assert all(len(register) <= config.history_depth
                   for register in predictor.registers)
        assert predictor.diffs == [[]] * config.max_step


@st.composite
def geometries(draw):
    max_step = draw(st.integers(1, 4))
    return dict(
        max_step=max_step,
        predict_steps=draw(st.integers(1, max_step)),
        history_depth=draw(st.integers(1, 3)),
        table_entries=draw(st.integers(1, 4)),
        max_vector_members=draw(st.integers(1, 4)),
        line_addr_bits=draw(st.sampled_from([6, 8, 32])),
        stride_bits=draw(st.sampled_from([3, 5, 16])),
        hash_bits=draw(st.sampled_from([4, 12])),
        tag_bits=draw(st.sampled_from([3, 16])),
        seed=draw(st.integers(0, 1 << 16)),
    )


#: A run repeats one block shape ``repetitions`` times, moving every line
#: by ``stride`` per repetition: a constant differential (a memo hit)
#: until the next run changes it (a memo miss).  Empty line lists make
#: empty blocks; two block ids make switches.
block_runs = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(st.integers(0, 1 << 10), max_size=6),
        st.sampled_from([0, 1, -3, 64, 1000, 70000]),
        st.integers(1, 6),
    ),
    max_size=8,
)


@st.composite
def run_traces(draw):
    """Repeated blocks (empty ones included) with accesses outside
    blocks between the runs, at 64- or 128-byte lines."""
    line_shift = draw(st.sampled_from([6, 7]))
    offset = draw(st.integers(0, (1 << line_shift) - 1))
    events = []
    for block_id, bases, stride, repetitions in draw(block_runs):
        for n in range(repetitions):
            events.append(BlockBegin(0, block_id))
            events += [
                MemoryAccess(0, 1, (((base + stride * n) % (1 << 20))
                                    << line_shift) + offset, False)
                for base in bases
            ]
            events.append(BlockEnd(0, block_id))
        events += [MemoryAccess(0, 2, line << line_shift, True)
                   for line in draw(st.lists(st.integers(0, 1 << 10),
                                             max_size=3))]
    return Trace("runs", events, 0), line_shift


#: Any marker order, nested and unbalanced ones included.
loose_events = st.lists(
    st.one_of(
        st.builds(lambda line: MemoryAccess(0, 0, line << 6, False),
                  st.integers(0, 1 << 12)),
        st.builds(lambda block_id: BlockBegin(0, block_id), st.integers(0, 2)),
        st.builds(lambda block_id: BlockEnd(0, block_id), st.integers(0, 2)),
    ),
    max_size=60,
)


def oracle_drive(trace, geometry, line_shift):
    """The clean-room CbwsOracle following ``trace`` event by event.

    Returns every BLOCK_END's output, the :class:`PredictorStats` and
    the ``confident`` / ``last_block_overflowed`` flags Algorithm 1
    should report after the trace, and the oracle itself.
    """
    oracle = CbwsOracle(**geometry)
    predict_steps = geometry["predict_steps"]
    stats = PredictorStats()
    outputs = []
    confident = overflowed = False
    for event in trace.events:
        if event.kind == MEMORY_ACCESS:
            line = event.address >> line_shift
            assert oracle.on_access(event.pc, line, event.address,
                                    False) == []
        elif event.kind == BLOCK_BEGIN:
            if event.block_id != oracle.block_id:
                confident = False
            oracle.on_block_begin(event.block_id)
        else:
            overflowed = oracle.overflowed
            want = oracle.on_block_end(event.block_id)
            hits = sum(
                oracle._tag(register) in oracle.table
                for register in oracle.registers[:predict_steps]
            )
            confident = hits > 0
            stats.blocks_completed += 1
            stats.blocks_overflowed += overflowed
            stats.table_lookups += predict_steps
            stats.table_hits += hits
            stats.predictions_made += bool(want)
            stats.lines_predicted += len(want)
            outputs.append(want)
    return outputs, stats, confident, overflowed, oracle


def assert_matches_oracle(trace, geometry, line_shift, stream=None):
    """``predict_trace`` (or ``stream``, its result) equals the oracle:
    per-block outputs, stats, table items in order, RNG state, and the
    predictor's end state."""
    outputs, stats, confident, overflowed, oracle = oracle_drive(
        trace, geometry, line_shift)
    if stream is None:
        stream = predict_trace(trace, CbwsConfig(**geometry), line_shift)
    predictor = stream.predictor
    assert [stream.block(i) for i in range(len(stream))] == outputs
    assert predictor.stats == stats
    assert list(predictor.table.items()) == list(oracle.table.items())
    assert predictor.rng._rng.getstate() == oracle.rng.getstate()
    assert predictor.confident == confident
    assert predictor.last_block_overflowed == overflowed
    assert predictor.capacity == oracle.vector
    assert predictor.addr_mask == oracle.line_mask
    assert predictor.lines == oracle.current
    assert predictor.overflowed == oracle.overflowed
    assert list(predictor.last_blocks) == oracle.last_blocks
    assert predictor.diffs == oracle.diffs
    assert predictor.registers == [tuple(r) for r in oracle.registers]
    assert predictor.tags == [oracle._tag(r) for r in oracle.registers]
    assert predictor.block_id == oracle.block_id


def memo_peaks(run):
    """``run()``'s result and the largest sizes the two memos of
    ``_drive`` reach while it runs (0 when no pass ran)."""
    memos = []
    peaks = [0, 0]

    def local(frame, event, arg):
        if not memos:
            names = frame.f_locals
            if "shifts" in names:
                memos.extend((names["hashes"], names["shifts"]))
        else:
            for position, memo in enumerate(memos):
                peaks[position] = max(peaks[position], len(memo))
        return local

    def tracer(frame, event, arg):
        if frame.f_code is _drive.__code__:
            return local
        return None

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, peaks


class TestMatchesOracle:
    """predict_trace against the clean-room CbwsOracle, whole traces."""

    @settings(max_examples=200, deadline=None)
    @given(geometries(), run_traces())
    def test_candidates_and_stats_match(self, geometry, traced):
        trace, line_shift = traced
        assert_matches_oracle(trace, geometry, line_shift)

    @settings(max_examples=150, deadline=None)
    @given(geometries(), loose_events)
    def test_any_marker_order_matches(self, geometry, events):
        assert_matches_oracle(Trace("loose", events, 0), geometry, 6)

    def test_memos_stay_within_their_bound(self):
        """More distinct differentials than a memo holds: each memo
        fills to the bound, is emptied, and the stream is unchanged."""
        import random

        rng = random.Random(11)
        blocks = [[rng.randrange(1 << 20) for _ in range(3)]
                  for _ in range(predictor_module.MEMO_ENTRIES + 200)]
        events = []
        for block in blocks:
            events.append(BlockBegin(0, 0))
            events += [MemoryAccess(0, 0, line << 6, False) for line in block]
            events.append(BlockEnd(0, 0))
        trace = Trace("distinct", events, 0)
        geometry = dataclasses.asdict(CbwsConfig())
        stream, peaks = memo_peaks(
            lambda: predict_trace(trace, CbwsConfig(), 6))
        assert peaks == [predictor_module.MEMO_ENTRIES] * 2
        assert_matches_oracle(trace, geometry, 6, stream)


class TestRobustnessProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1 << 34), max_size=20),
            max_size=30,
        )
    )
    def test_never_crashes_and_respects_width(self, blocks):
        predictor = CbwsPredictor()
        for block in blocks:
            predictions = run_block(predictor, block)
            for line in predictions:
                assert 0 <= line < (1 << 32)
            assert len(predictor.last_blocks) <= 4


def live_drive(trace, config, line_shift):
    """Every BLOCK_END's output of one predictor fed ``trace`` in
    separate passes, one ending at each BLOCK_END: each pass continues
    from the state the last one wrote back."""
    predictor = CbwsPredictor(config)
    columns = trace.columns()
    kinds, payloads = columns.kinds, columns.payloads
    outputs = []
    start = 0
    for end, kind in enumerate(kinds, 1):
        if kind == BLOCK_END or end == len(kinds):
            stream = _drive(predictor, kinds[start:end], payloads[start:end],
                            line_shift)
            outputs += [stream.block(i) for i in range(len(stream))]
            start = end
    return outputs, predictor


def replayed(prefetcher, trace, line_shift):
    """Every BLOCK_END's output of ``prefetcher`` replaying ``trace``."""
    prefetcher.on_trace(trace, line_shift)
    return [prefetcher.on_block_end(event.block_id)
            for event in trace.events if event.kind == BLOCK_END]


class TestPredictTrace:
    """One pass over a trace equals the trace cut into one pass per
    block, and the prefetcher replays it."""

    @settings(max_examples=150, deadline=None)
    @given(geometries(), run_traces())
    def test_replay_equals_live_drive(self, geometry, traced):
        trace, line_shift = traced
        config = CbwsConfig(**geometry)
        want, live = live_drive(trace, config, line_shift)
        stream = predict_trace(trace, config, line_shift)
        assert [stream.block(i) for i in range(len(stream))] == want
        assert stream.predictor.stats == live.stats
        assert list(stream.predictor.table.items()) == \
            list(live.table.items())
        assert replayed(CbwsPrefetcher(config), trace, line_shift) == want

    @settings(max_examples=100, deadline=None)
    @given(geometries(), loose_events)
    def test_any_marker_order(self, geometry, events):
        trace = Trace("loose", events, 0)
        config = CbwsConfig(**geometry)
        want, _ = live_drive(trace, config, 6)
        assert replayed(CbwsPrefetcher(config), trace, 6) == want

    def test_steady_loop_predicts(self):
        events = []
        for n in range(10):
            events.append(BlockBegin(0, 0))
            events += [MemoryAccess(0, 0, line << 6, False)
                       for line in stencil_block(n)]
            events.append(BlockEnd(0, 0))
        stream = predict_trace(Trace("stencil", events, 0), CbwsConfig(), 6)
        assert len(stream) == 10
        assert stream.block(9)
        assert stream.predictor.confident

    def test_line_addr_bits_bounded(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            CbwsConfig(line_addr_bits=65)


class TestPredictionMemo:
    """The last stream is kept per (trace, config, line size, type)."""

    @staticmethod
    def trace():
        events = []
        for n in range(8):
            events.append(BlockBegin(0, 0))
            events += [MemoryAccess(0, 0, line << 7, False)
                       for line in stencil_block(n)]
            events.append(BlockEnd(0, 0))
        return Trace("memo", events, 0)

    def test_second_request_replays_the_kept_stream(self):
        trace = self.trace()
        first = predict_trace(trace, CbwsConfig(), 6)
        assert predict_trace(trace, CbwsConfig(), 6) is first

    def test_new_config_or_line_size_recomputes(self):
        trace = self.trace()
        first = predict_trace(trace, CbwsConfig(), 6)
        other_config = predict_trace(
            trace, CbwsConfig(max_step=2, predict_steps=2), 6)
        assert other_config is not first
        assert other_config.predictor.config.max_step == 2
        other_shift = predict_trace(trace, CbwsConfig(), 7)
        assert other_shift is not first
        want, _ = live_drive(trace, CbwsConfig(), 7)
        assert [other_shift.block(i) for i in range(len(other_shift))] == want
        assert [other_shift.block(i) for i in range(len(other_shift))] != [
            first.block(i) for i in range(len(first))]

    def test_new_trace_recomputes(self):
        first = predict_trace(self.trace(), CbwsConfig(), 6)
        assert predict_trace(self.trace(), CbwsConfig(), 6) is not first

    def test_entry_dropped_when_the_trace_is_collected(self):
        import gc
        import weakref

        from repro.core import predictor as module

        trace = self.trace()
        stream = weakref.ref(predict_trace(trace, CbwsConfig(), 6))
        assert module._last_stream is not None
        del trace
        gc.collect()
        assert module._last_stream is None
        assert stream() is None
