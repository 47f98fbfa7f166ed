"""Tests for Algorithm 1 — the CBWS differential predictor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import CbwsOracle
from repro.core.history import history_tag
from repro.core.predictor import (
    CbwsConfig,
    CbwsPredictor,
    PredictorStats,
    predict_trace,
)
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.base import DemandInfo
from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
)
from repro.trace.stream import Trace


def run_block(predictor, lines, block_id=0):
    predictor.block_begin(block_id)
    for line in lines:
        predictor.memory_access(line)
    return predictor.block_end()


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
        # Switching to a different static loop must not predict from the
        # old loop's history.
        predictions = run_block(predictor, [1, 2, 3], block_id=1)
        assert len(predictor.last_blocks) == 1  # only the new block

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


class TestReset:
    def test_reset_clears_everything(self):
        predictor = CbwsPredictor()
        for n in range(8):
            run_block(predictor, stencil_block(n))
        predictor.reset()
        assert predictor.stats.blocks_completed == 0
        assert len(predictor.last_blocks) == 0
        assert run_block(predictor, stencil_block(0)) == []

    def test_reset_clears_overflow_flag(self):
        predictor = CbwsPredictor()
        run_block(predictor, list(range(100, 117)))  # 17 lines > 16
        assert predictor.last_block_overflowed
        predictor.reset()
        assert predictor.last_block_overflowed is False


class TestHistoryState:
    def test_registers_bounded_by_depth(self):
        predictor = CbwsPredictor(CbwsConfig(history_depth=2))
        for n in range(6):
            run_block(predictor, stencil_block(n))
        assert all(len(register) == 2 for register in predictor._registers)

    def test_tags_follow_registers(self):
        config = CbwsConfig()
        predictor = CbwsPredictor(config)
        for n in range(6):
            run_block(predictor, stencil_block(n * n))
        assert predictor._tags == [
            history_tag(register, config.hash_bits, config.tag_bits)
            for register in predictor._registers
        ]

    def test_block_switch_empties_history(self):
        predictor = CbwsPredictor()
        for n in range(4):
            run_block(predictor, stencil_block(n))
        predictor.block_begin(1)
        assert predictor._registers == [()] * 4
        assert predictor._tags == [history_tag(())] * 4

    def test_state_does_not_grow_with_the_trace(self):
        import random

        rng = random.Random(3)
        config = CbwsConfig(max_vector_members=4)
        predictor = CbwsPredictor(config)
        for _ in range(300):
            run_block(predictor, [rng.randrange(1 << 20) for _ in range(6)])
        assert len(predictor._last_deltas) == config.max_step
        assert all(len(delta) <= config.max_vector_members
                   for delta in predictor._last_deltas)
        assert len(predictor.table) <= config.table_entries


def access(line):
    return DemandInfo(pc=0, line=line, address=line << 6, is_write=False,
                      l1_hit=True, l2_hit=False)


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
#: by ``stride`` per repetition: a constant differential (the shortcut
#: hit path) until the next run changes it (the miss path).  Empty line
#: lists make empty blocks; two block ids make switches.
block_runs = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(st.integers(0, 1 << 10), max_size=6),
        st.sampled_from([0, 1, -3, 64, 1000, 70000]),
        st.integers(1, 6),
    ),
    max_size=8,
)


class TestMatchesOracle:
    """CbwsPredictor against the clean-room CbwsOracle, event by event."""

    @settings(max_examples=200, deadline=None)
    @given(geometries(), block_runs)
    def test_candidates_and_stats_match(self, geometry, runs):
        predictor = CbwsPredictor(CbwsConfig(**geometry))
        oracle = CbwsOracle(**geometry)
        predict_steps = geometry["predict_steps"]
        expected = PredictorStats()
        for block_id, bases, stride, repetitions in runs:
            for n in range(repetitions):
                predictor.block_begin(block_id)
                oracle.on_block_begin(block_id)
                for base in bases:
                    info = access((base + stride * n) % (1 << 20))
                    predictor.memory_access(info.line)
                    assert oracle.on_access(info) == []
                overflowed = oracle.overflowed
                got = predictor.block_end()
                want = oracle.on_block_end(block_id)
                assert got == want
                hits = sum(
                    oracle._tag(register) in oracle.table
                    for register in oracle.registers[:predict_steps]
                )
                expected.blocks_completed += 1
                expected.blocks_overflowed += overflowed
                expected.table_lookups += predict_steps
                expected.table_hits += hits
                expected.predictions_made += bool(want)
                expected.lines_predicted += len(want)
                assert predictor.last_block_overflowed == overflowed
                assert predictor.confident == (hits > 0)
                assert list(predictor.table._table.items()) == \
                    list(oracle.table.items())
        assert predictor.stats == expected
        assert predictor.table.lookups == expected.table_lookups
        assert predictor.table.hits == expected.table_hits


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
    """Every BLOCK_END's output of a predictor driven event by event: a
    BLOCK_BEGIN opens a block, accesses count only while one is open."""
    predictor = CbwsPredictor(config)
    outputs = []
    in_block = False
    for event in trace.events:
        if event.kind == MEMORY_ACCESS:
            if in_block:
                predictor.memory_access(event.address >> line_shift)
        elif event.kind == BLOCK_BEGIN:
            predictor.block_begin(event.block_id)
            in_block = True
        else:
            outputs.append(predictor.block_end())
            in_block = False
    return outputs, predictor


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


def replayed(prefetcher, trace, line_shift):
    """Every BLOCK_END's output of ``prefetcher`` replaying ``trace``."""
    prefetcher.on_trace(trace, line_shift)
    return [prefetcher.on_block_end(event.block_id)
            for event in trace.events if event.kind == BLOCK_END]


class TestPredictTrace:
    """One pass over a trace equals a predictor driven event by event."""

    @settings(max_examples=150, deadline=None)
    @given(geometries(), run_traces())
    def test_replay_equals_live_drive(self, geometry, traced):
        trace, line_shift = traced
        config = CbwsConfig(**geometry)
        want, live = live_drive(trace, config, line_shift)
        stream = predict_trace(trace, config, line_shift)
        assert [stream.block(i) for i in range(len(stream))] == want
        assert stream.predictor.stats == live.stats
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
