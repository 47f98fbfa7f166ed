"""Tests for the global history buffer prefetcher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.prefetchers.ghb import GhbConfig, GhbPrefetcher, GlobalHistoryBuffer


def miss(pc, line):
    """``on_access`` arguments for an L1 miss on ``line``."""
    return pc, line, line * 64, False


def l1_hit(pc, line):
    """``on_access`` arguments for an L1 hit on ``line``."""
    return pc, line, line * 64, True


class TestBuffer:
    def test_chain_recovers_per_key_history(self):
        buffer = GlobalHistoryBuffer(8)
        buffer.push(1, 10)
        buffer.push(2, 99)
        buffer.push(1, 20)
        buffer.push(1, 30)
        assert buffer.chain(1, 10) == [30, 20, 10]
        assert buffer.chain(2, 10) == [99]

    def test_chain_respects_max_length(self):
        buffer = GlobalHistoryBuffer(8)
        for value in range(5):
            buffer.push(1, value)
        assert buffer.chain(1, 3) == [4, 3, 2]

    def test_stale_links_terminate_chain(self):
        buffer = GlobalHistoryBuffer(4)
        buffer.push(1, 10)          # will be overwritten
        for value in (20, 30, 40, 50):
            buffer.push(1, value)   # 5 pushes into 4 slots
        chain = buffer.chain(1, 10)
        assert chain == [50, 40, 30, 20]  # entry 10 was overwritten

    def test_overwritten_head_yields_empty_chain(self):
        buffer = GlobalHistoryBuffer(2)
        buffer.push(1, 10)
        buffer.push(2, 20)
        buffer.push(2, 30)  # overwrites key 1's only entry
        assert buffer.chain(1, 10) == []

    def test_len_saturates_at_capacity(self):
        buffer = GlobalHistoryBuffer(3)
        for value in range(10):
            buffer.push(1, value)
        assert len(buffer) == 3

    def test_clear(self):
        buffer = GlobalHistoryBuffer(4)
        buffer.push(1, 10)
        buffer.clear()
        assert buffer.chain(1, 10) == []
        assert len(buffer) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GlobalHistoryBuffer(0)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1000)),
            max_size=100,
        )
    )
    def test_chain_matches_reference(self, pushes):
        """The chain equals the per-key suffix that still fits the FIFO."""
        capacity = 8
        buffer = GlobalHistoryBuffer(capacity)
        history: list[tuple[int, int]] = []
        for key, line in pushes:
            buffer.push(key, line)
            history.append((key, line))
        live = history[-capacity:]
        for key in range(4):
            expected = [line for k, line in reversed(live) if k == key]
            got = buffer.chain(key, capacity)
            # The chain may stop early at a stale link but must be a
            # prefix of the reference and exact when unbroken.
            assert got == expected[: len(got)]


class TestDeltaCorrelation:
    def test_constant_stride_stream_predicted(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc", degree=3))
        candidates = []
        for k in range(6):
            candidates = prefetcher.on_access(*miss(1, 100 + 16 * k))
        # Most-recent-match replay: only the delta between the match and
        # the head remains, so the constant stream predicts one line.
        assert candidates == [196]

    def test_repeating_delta_pattern_predicted(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc", degree=3))
        # Deltas cycle 1, 1, 10.
        lines = [0, 1, 2, 12, 13, 14, 24, 25]
        for line in lines:
            candidates = prefetcher.on_access(*miss(1, line))
        # History (1, 1) last seen followed by 10, 1, 1.
        assert candidates == [26, 36, 37]

    def test_hits_do_not_train(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc"))
        for k in range(6):
            assert prefetcher.on_access(*l1_hit(1, 100 + k * 16)) == []
        assert len(prefetcher.buffer) == 0

    def test_too_short_history_is_silent(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc"))
        assert prefetcher.on_access(*miss(1, 0)) == []
        assert prefetcher.on_access(*miss(1, 16)) == []

    def test_global_mode_mixes_pcs(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="global", degree=2))
        # Two PCs interleave into one global +8 stream.
        candidates = []
        for k in range(8):
            candidates = prefetcher.on_access(*miss(k % 2, k * 8))
        assert candidates == [64]

    def test_pc_mode_separates_pcs(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc", degree=1))
        for k in range(4):
            prefetcher.on_access(*miss(1, k * 16))
            candidates = prefetcher.on_access(*miss(2, 1000 + k * 4))
        assert candidates == [1000 + 4 * 4]

class TestConfigAndStorage:
    def test_mode_names(self):
        assert GhbPrefetcher(GhbConfig(mode="global")).name == "ghb-g/dc"
        assert GhbPrefetcher(GhbConfig(mode="pc")).name == "ghb-pc/dc"

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            GhbConfig(mode="bogus")  # type: ignore[arg-type]
        with pytest.raises(ConfigError):
            GhbConfig(history_length=1)
        with pytest.raises(ConfigError):
            GhbConfig(degree=0)

    def test_storage_matches_table3(self):
        assert GhbPrefetcher(GhbConfig(mode="global")).storage_bits() == 18432
        assert GhbPrefetcher(GhbConfig(mode="pc")).storage_bits() == 30720
