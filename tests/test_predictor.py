"""Tests for Algorithm 1 — the CBWS differential predictor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import CbwsOracle
from repro.core.history import history_tag
from repro.core.predictor import CbwsConfig, CbwsPredictor, PredictorStats
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.base import DemandInfo


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
        prefetcher = CbwsPrefetcher()
        predictor = prefetcher.predictor
        run_block(predictor, list(range(100, 117)))  # 17 lines > 16
        assert predictor.last_block_overflowed
        assert not prefetcher.covers_full_working_set
        prefetcher.reset()
        assert predictor.last_block_overflowed is False
        assert prefetcher.covers_full_working_set


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
    """CbwsPrefetcher against the clean-room CbwsOracle, event by event."""

    @settings(max_examples=200, deadline=None)
    @given(geometries(), block_runs)
    def test_candidates_and_stats_match(self, geometry, runs):
        impl = CbwsPrefetcher(CbwsConfig(**geometry))
        oracle = CbwsOracle(**geometry)
        predict_steps = geometry["predict_steps"]
        expected = PredictorStats()
        for block_id, bases, stride, repetitions in runs:
            for n in range(repetitions):
                impl.on_block_begin(block_id)
                oracle.on_block_begin(block_id)
                for base in bases:
                    info = access((base + stride * n) % (1 << 20))
                    assert impl.on_access(info) == oracle.on_access(info)
                overflowed = oracle.overflowed
                got = impl.on_block_end(block_id)
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
                predictor = impl.predictor
                assert predictor.last_block_overflowed == overflowed
                assert predictor.confident == (hits > 0)
                assert list(predictor.table._table.items()) == \
                    list(oracle.table.items())
        assert impl.predictor.stats == expected
        assert impl.predictor.table.lookups == expected.table_lookups
        assert impl.predictor.table.hits == expected.table_hits


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
