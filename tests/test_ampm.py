"""Tests for the AMPM extension prefetcher."""

import pytest

from repro.common.errors import ConfigError
from repro.prefetchers.ampm import AmpmConfig, AmpmPrefetcher


def access(line):
    """``on_access`` arguments for an L1 miss on ``line``."""
    return 0x400000, line, line * 64, False


class TestConfig:
    def test_defaults(self):
        config = AmpmConfig()
        assert config.zone_lines == 64
        assert config.storage_bits_total == 52 * (36 + 128)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            AmpmConfig(zone_lines=60)
        with pytest.raises(ConfigError):
            AmpmConfig(map_entries=0)
        with pytest.raises(ConfigError):
            AmpmConfig(degree=0)


class TestPatternMatching:
    def test_unit_stride_detected_on_third_access(self):
        prefetcher = AmpmPrefetcher()
        assert prefetcher.on_access(*access(100)) == []
        assert prefetcher.on_access(*access(101)) == []
        assert prefetcher.on_access(*access(102)) == [103, 104, 105, 106]

    def test_larger_strides_detected(self):
        prefetcher = AmpmPrefetcher(AmpmConfig(degree=1))
        for line in (0, 5, 10):
            candidates = prefetcher.on_access(*access(line))
        assert candidates == [15]

    def test_negative_stride_detected(self):
        prefetcher = AmpmPrefetcher(AmpmConfig(degree=1))
        for line in (200, 197, 194):
            candidates = prefetcher.on_access(*access(line))
        assert candidates == [191]

    def test_strides_beyond_max_ignored(self):
        prefetcher = AmpmPrefetcher(AmpmConfig(max_stride=4))
        for line in (0, 10, 20):
            candidates = prefetcher.on_access(*access(line))
        assert candidates == []

    def test_random_pattern_is_silent(self):
        prefetcher = AmpmPrefetcher()
        for line in (3, 47, 12, 59, 31):
            assert prefetcher.on_access(*access(line)) == []

    def test_matching_crosses_zone_boundaries(self):
        """A stream crossing from zone 0 into zone 1 keeps matching: the
        map lookups walk into the neighbouring zone."""
        prefetcher = AmpmPrefetcher(AmpmConfig(degree=1))
        candidates = []
        for line in (62, 63, 64, 65):
            candidates = prefetcher.on_access(*access(line))
        assert candidates == [66]

    def test_covered_lines_not_reissued(self):
        prefetcher = AmpmPrefetcher()
        prefetcher.on_access(*access(100))
        prefetcher.on_access(*access(101))
        first = prefetcher.on_access(*access(102))
        second = prefetcher.on_access(*access(103))
        assert 104 in first
        assert 104 not in second  # already marked prefetched


class TestMapTable:
    def test_lru_eviction_of_zones(self):
        prefetcher = AmpmPrefetcher(AmpmConfig(map_entries=2))
        prefetcher.on_access(*access(0))        # zone 0
        prefetcher.on_access(*access(64))       # zone 1
        prefetcher.on_access(*access(128))      # zone 2 evicts zone 0
        assert prefetcher.accessed_bitmap(0) == 0
        assert prefetcher.accessed_bitmap(1) != 0

    def test_bitmap_records_offsets(self):
        prefetcher = AmpmPrefetcher()
        prefetcher.on_access(*access(7))
        prefetcher.on_access(*access(9))
        assert prefetcher.accessed_bitmap(0) == (1 << 7) | (1 << 9)

class TestIntegration:
    def test_registered_in_registry(self):
        from repro.harness.registry import (
            EXTENDED_PREFETCHER_ORDER,
            make_prefetcher,
        )

        assert "ampm" in EXTENDED_PREFETCHER_ORDER
        assert make_prefetcher("ampm").name == "ampm"

    def test_helps_streaming_workload(self, tiny_runner):
        baseline = tiny_runner.run_one("462.libquantum-ref", "no-prefetch")
        ampm = tiny_runner.run_one("462.libquantum-ref", "ampm")
        assert ampm.mpki < baseline.mpki * 0.5
