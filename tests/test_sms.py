"""Tests for the spatial memory streaming prefetcher."""

import pytest

from repro.common.errors import ConfigError
from repro.prefetchers.sms import SmsConfig, SmsPrefetcher


def access(pc, line):
    """``on_access`` arguments for an L1 miss on ``line``."""
    return pc, line, line * 64, False


def train_region(prefetcher, pc, base_line, offsets):
    """Run one full generation: touch the lines, then end it by evicting
    the trigger line from L1."""
    for offset in offsets:
        prefetcher.on_access(*access(pc, base_line + offset))
    prefetcher.on_l1_eviction(base_line + offsets[0])


class TestConfig:
    def test_defaults_match_table2(self):
        config = SmsConfig()
        assert config.region_size == 2048
        assert config.lines_per_region == 32
        assert config.pht_entries == 512

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            SmsConfig(region_size=1000)
        with pytest.raises(ConfigError):
            SmsConfig(region_size=32)
        with pytest.raises(ConfigError):
            SmsConfig(pht_entries=0)


class TestGenerationLifecycle:
    def test_pattern_learned_after_generation_ends(self):
        prefetcher = SmsPrefetcher()
        train_region(prefetcher, pc=7, base_line=64, offsets=[0, 3, 9])
        pattern = prefetcher.learned_pattern(7, 0)
        assert pattern == (1 << 0) | (1 << 3) | (1 << 9)

    def test_single_access_region_still_trains_via_filter(self):
        prefetcher = SmsPrefetcher()
        prefetcher.on_access(*access(7, 64))
        prefetcher.on_l1_eviction(64)
        assert prefetcher.learned_pattern(7, 0) == 1

    def test_stream_on_trigger_hit(self):
        prefetcher = SmsPrefetcher()
        train_region(prefetcher, pc=7, base_line=64, offsets=[0, 3, 9])
        # Same trigger (pc, offset 0) on a new region streams the pattern.
        candidates = prefetcher.on_access(*access(7, 128))
        assert sorted(candidates) == [131, 137]  # trigger line excluded

    def test_different_trigger_offset_is_different_pattern(self):
        prefetcher = SmsPrefetcher()
        train_region(prefetcher, pc=7, base_line=64, offsets=[0, 3])
        assert prefetcher.on_access(*access(7, 128 + 5)) == []

    def test_different_pc_is_different_pattern(self):
        prefetcher = SmsPrefetcher()
        train_region(prefetcher, pc=7, base_line=64, offsets=[0, 3])
        assert prefetcher.on_access(*access(8, 128)) == []

    def test_agt_capacity_eviction_still_trains(self):
        prefetcher = SmsPrefetcher(SmsConfig(agt_entries=1, filter_entries=1))
        # Region A promoted to the 1-entry AGT, then region B's promotion
        # evicts it; A's partial pattern must still reach the PHT.
        prefetcher.on_access(*access(1, 0))
        prefetcher.on_access(*access(1, 2))       # promote A
        prefetcher.on_access(*access(2, 320))
        prefetcher.on_access(*access(2, 322))     # promote B, evict A
        assert prefetcher.learned_pattern(1, 0) == 0b101

    def test_eviction_of_untracked_region_is_noop(self):
        prefetcher = SmsPrefetcher()
        prefetcher.on_l1_eviction(12345)  # nothing tracked: no crash


class TestRegionGeometry:
    def test_region_boundary_splits_patterns(self):
        """Accesses one line apart but across a region boundary belong to
        different generations — the structural weakness the paper's
        stencil exploits."""
        prefetcher = SmsPrefetcher()
        last_line_of_region = 31
        prefetcher.on_access(*access(1, last_line_of_region))
        prefetcher.on_access(*access(1, last_line_of_region + 1))
        prefetcher.on_l1_eviction(last_line_of_region)
        prefetcher.on_l1_eviction(last_line_of_region + 1)
        assert prefetcher.learned_pattern(1, 31) == 1 << 31
        assert prefetcher.learned_pattern(1, 0) == 1


class TestCapacityAndReset:
    def test_pht_lru_eviction(self):
        prefetcher = SmsPrefetcher(SmsConfig(pht_entries=2))
        train_region(prefetcher, pc=1, base_line=0, offsets=[0, 1])
        train_region(prefetcher, pc=2, base_line=64, offsets=[0, 1])
        train_region(prefetcher, pc=3, base_line=128, offsets=[0, 1])
        assert prefetcher.learned_pattern(1, 0) is None
        assert prefetcher.learned_pattern(3, 0) is not None

    def test_storage_is_reported(self):
        assert SmsPrefetcher().storage_bits() > 0
