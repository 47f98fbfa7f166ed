"""Tests for the differential hash, the history tag and the history table."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import bit_select, fold_xor, mask
from repro.common.errors import ConfigError
from repro.check.oracles import CbwsOracle
from repro.common.rng import DeterministicRng
from repro.core.history import hash_differential, history_tag
from repro.core.predictor import (
    CbwsConfig,
    CbwsPredictor,
    PredictorStats,
    _drive,
)
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS


class TestHashDifferential:
    def test_deterministic(self):
        delta = (16, 16, -8, 0)
        assert hash_differential(delta) == hash_differential(delta)

    def test_fits_12_bits(self):
        for delta in [(1,), (5000, -5000), tuple(range(16))]:
            assert 0 <= hash_differential(delta) <= 0xFFF

    def test_empty_reserved_value(self):
        assert hash_differential(()) == 0xFFF

    def test_order_sensitive(self):
        assert hash_differential((1, 2)) != hash_differential((2, 1))

    def test_length_sensitive(self):
        assert hash_differential((7,)) != hash_differential((7, 7))

    @given(st.lists(st.integers(-32768, 32767), max_size=16),
           st.integers(min_value=4, max_value=20))
    def test_width_respected(self, delta, bits):
        assert 0 <= hash_differential(tuple(delta), bits) < (1 << bits)


def reference_hash(delta, bits=12):
    """hash_differential spelled with the bitops helpers it inlines."""
    if not delta:
        return mask(bits)
    folded = len(delta)
    for position, element in enumerate(delta):
        encoded = element & 0xFFFF
        rotation = (position * 5) % 16
        folded ^= ((encoded << rotation) | (encoded >> (16 - rotation))) \
            & 0xFFFFFFFF
    return bit_select(fold_xor(folded, bits), bits)


def reference_tag(values, hash_bits=12, tag_bits=16):
    """history_tag spelled with the bitops helpers it inlines."""
    concatenated = 0
    for position, value in enumerate(values):
        concatenated |= bit_select(value, hash_bits) << (position * hash_bits)
    return fold_xor(concatenated ^ len(values), tag_bits)


class TestInlinedArithmetic:
    @given(st.lists(st.integers(-(1 << 20), 1 << 20), max_size=16),
           st.integers(min_value=1, max_value=20))
    def test_hash_matches_bitops_spelling(self, delta, bits):
        assert hash_differential(tuple(delta), bits) == \
            reference_hash(delta, bits)

    @given(st.lists(st.integers(0, 1 << 16), max_size=4),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=20))
    def test_tag_matches_bitops_spelling(self, values, hash_bits, tag_bits):
        assert history_tag(tuple(values), hash_bits, tag_bits) == \
            reference_tag(values, hash_bits, tag_bits)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            hash_differential((1,), 0)
        with pytest.raises(ValueError):
            history_tag((1,), 12, 0)


class TestHistoryTag:
    def test_tag_changes_with_history(self):
        assert history_tag((1, 2, 3)) != history_tag((3, 2, 1))

    def test_tag_deterministic(self):
        assert history_tag((5, 9, 12)) == history_tag((5, 9, 12))

    def test_tag_fits_16_bits(self):
        assert 0 <= history_tag((0xFFF, 0xFFF, 0xFFF), 12, 16) <= 0xFFFF

    @given(st.lists(st.integers(0, 0xFFF), max_size=3),
           st.integers(min_value=1, max_value=16))
    def test_tag_width_respected(self, values, tag_bits):
        assert 0 <= history_tag(tuple(values), 12, tag_bits) < (1 << tag_bits)

    def test_fill_level_salts_tag(self):
        """A 1-deep history differs from the same value repeated."""
        for value in (0, 1, 0x7FF, 0xFFF):
            assert history_tag((value,)) != history_tag((value, value))
        assert history_tag(()) != history_tag((0,))

    def test_values_bit_selected_to_hash_width(self):
        assert history_tag((0x1005,), 12) == history_tag((0x005,), 12)


class TestShiftRegister:
    """The shift registers are the predictor's flat tuples, sized by
    CbwsConfig.history_depth."""

    def test_zero_depth_rejected(self):
        with pytest.raises(ConfigError):
            CbwsConfig(history_depth=0)
        with pytest.raises(ConfigError):
            CbwsConfig(history_depth=-1)


def one_line_blocks(lines, **geometry):
    """A predictor after one pass over single-line blocks, at line
    size 1."""
    kinds, payloads = array("B"), array("Q")
    for line in lines:
        kinds.extend([BLOCK_BEGIN, MEMORY_ACCESS, BLOCK_END])
        payloads.extend([0, line, 0])
    predictor = CbwsPredictor(CbwsConfig(**geometry))
    return _drive(predictor, kinds, payloads, 0)


def random_blocks(count, seed=5):
    rng = random.Random(seed)
    return [rng.randrange(1 << 20) for _ in range(count)]


class TestHistoryTable:
    """The differential history table, as Algorithm 1 trains and probes
    it."""

    def test_insert_lookup(self):
        """A trained differential is found again: the constant 1-line
        stride predicts the next line."""
        stream = one_line_blocks(range(100, 106), max_step=1,
                                 predict_steps=1, history_depth=1)
        assert (1,) in stream.predictor.table.values()
        assert stream.block(len(stream) - 1) == [106]

    def test_update_in_place(self):
        """Retraining a tag replaces its differential in place."""
        stream = one_line_blocks([0, 1, 2, 3, 5], max_step=1,
                                 predict_steps=1, history_depth=1)
        table = stream.predictor.table
        # Block 1 trains (1,) under the empty-hash tag; blocks 2-4 all
        # train under the tag of hash((1,)), the last one with (2,).
        assert list(table.values()) == [(1,), (2,)]

    def test_capacity_with_random_eviction(self):
        stream = one_line_blocks(random_blocks(40), table_entries=4)
        assert len(stream.predictor.table) == 4

    def test_random_eviction_is_seeded(self):
        def fill(seed):
            predictor = one_line_blocks(random_blocks(60), table_entries=4,
                                        seed=seed).predictor
            return list(predictor.table.items()), predictor.rng._rng.getstate()

        assert fill(7) == fill(7)
        assert fill(7)[1] != DeterministicRng(7)._rng.getstate()

    def test_hit_rate_tracking(self):
        assert PredictorStats(table_lookups=2, table_hits=1).hit_rate == \
            pytest.approx(0.5)
        assert PredictorStats().hit_rate == 0.0
        stats = one_line_blocks(range(100, 120)).predictor.stats
        assert stats.table_lookups == 20 * CbwsConfig().predict_steps
        assert 0 < stats.table_hits < stats.table_lookups

    def test_tags_masked_to_width(self):
        predictor = one_line_blocks(random_blocks(40), tag_bits=3,
                                    table_entries=16).predictor
        assert predictor.table
        assert all(0 <= tag < 8 for tag in predictor.table)
        assert all(0 <= tag < 8 for tag in predictor.tags)

    def test_clear(self):
        """A pass continues from a table emptied between passes: its
        stream and its retrained table, in insertion order (which steers
        random replacement), match the oracle's given the same two
        passes and the same emptying."""
        geometry = dict(table_entries=4)
        predictor = CbwsPredictor(CbwsConfig(**geometry))
        oracle = CbwsOracle(**geometry)
        passes = (range(100, 140), range(140, 170))
        for lines in passes:
            assert predictor.table == oracle.table
            predictor.table.clear()
            oracle.table.clear()
            kinds, payloads = array("B"), array("Q")
            want = []
            for line in lines:
                kinds.extend([BLOCK_BEGIN, MEMORY_ACCESS, BLOCK_END])
                payloads.extend([0, line, 0])
                oracle.on_block_begin(0)
                oracle.on_access(0, line, line, False)
                want.append(oracle.on_block_end(0))
            stream = _drive(predictor, kinds, payloads, 0)
            assert [stream.block(i) for i in range(len(stream))] == want
            assert any(want)
            assert list(predictor.table.items()) == list(oracle.table.items())
        assert predictor.rng._rng.getstate() == oracle.rng.getstate()

    def test_zero_entries_rejected(self):
        with pytest.raises(ConfigError):
            CbwsConfig(table_entries=0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1 << 16), max_size=4),
                    max_size=100))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        predictor = CbwsPredictor(CbwsConfig(table_entries=8))
        for lines in blocks:
            kinds = array("B", [BLOCK_BEGIN, *[MEMORY_ACCESS] * len(lines),
                                BLOCK_END])
            _drive(predictor, kinds, array("Q", [0, *lines, 0]), 0)
            assert len(predictor.table) <= 8
