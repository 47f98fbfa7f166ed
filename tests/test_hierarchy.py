"""Tests for the two-level inclusive hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import (
    FAST_L1_HIT,
    FAST_L2_HIT,
    FAST_L2_HIT_PREFETCH,
    FAST_MEMORY,
    CacheHierarchy,
    HierarchyConfig,
)


def tiny_hierarchy(l1_bytes=256, l2_bytes=1024):
    return CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(name="L1", size_bytes=l1_bytes, associativity=2),
            l2=CacheConfig(name="L2", size_bytes=l2_bytes, associativity=4),
        )
    )


def demand(hierarchy, line):
    return hierarchy.demand_access_fast(line, [])


def prefetch(hierarchy, line):
    return hierarchy.prefetch_fill_fast(line, [])


class TestConfig:
    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(ConfigError, match="inclusive"):
            HierarchyConfig(
                l1=CacheConfig(name="L1", size_bytes=1024, associativity=2),
                l2=CacheConfig(name="L2", size_bytes=512, associativity=4),
            )

    def test_mismatched_line_size_rejected(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                l1=CacheConfig(name="L1", size_bytes=1024, associativity=2,
                               line_size=128),
                l2=CacheConfig(name="L2", size_bytes=2048, associativity=4),
            )


class TestAccessPath:
    def test_cold_miss_goes_to_memory(self):
        hierarchy = tiny_hierarchy()
        assert demand(hierarchy, 5) == FAST_MEMORY

    def test_second_access_hits_l1(self):
        hierarchy = tiny_hierarchy()
        demand(hierarchy, 5)
        assert demand(hierarchy, 5) == FAST_L1_HIT

    def test_l1_victim_still_hits_l2(self):
        hierarchy = tiny_hierarchy(l1_bytes=128)  # 2 lines, 1 set
        demand(hierarchy, 0)
        demand(hierarchy, 1)
        demand(hierarchy, 2)  # evicts 0 from L1
        assert demand(hierarchy, 0) == FAST_L2_HIT

    def test_stats_counters(self):
        hierarchy = tiny_hierarchy()
        demand(hierarchy, 0)
        demand(hierarchy, 0)
        assert hierarchy.stats.accesses == 2
        assert hierarchy.stats.l1_misses == 1
        assert hierarchy.stats.l2_misses == 1


class TestPrefetchPath:
    def test_prefetch_fills_l2_only(self):
        hierarchy = tiny_hierarchy()
        prefetch(hierarchy, 9)
        assert hierarchy.l2.contains(9)
        assert not hierarchy.l1.contains(9)

    def test_redundant_prefetch_reports_none(self):
        hierarchy = tiny_hierarchy()
        assert prefetch(hierarchy, 9)
        assert not prefetch(hierarchy, 9)
        assert hierarchy.stats.prefetch_fills == 1

    def test_demand_on_prefetched_line_counts_useful(self):
        hierarchy = tiny_hierarchy()
        prefetch(hierarchy, 9)
        assert demand(hierarchy, 9) == FAST_L2_HIT_PREFETCH
        assert hierarchy.stats.useful_prefetch_hits == 1

    def test_unused_prefetch_eviction_counted_wrong(self):
        hierarchy = tiny_hierarchy(l1_bytes=128, l2_bytes=256)  # L2: 4 lines
        prefetch(hierarchy, 0)
        # Fill the set with demand lines until the prefetch is evicted.
        for line in (4, 8, 12, 16):
            demand(hierarchy, line)
        assert hierarchy.stats.wrong_prefetch_evictions >= 1


class TestInclusion:
    def test_l2_eviction_back_invalidates_l1(self):
        # L2 of 4 lines (1 set x 4 ways at 64B), L1 of 2 lines.
        hierarchy = CacheHierarchy(
            HierarchyConfig(
                l1=CacheConfig(name="L1", size_bytes=128, associativity=2),
                l2=CacheConfig(name="L2", size_bytes=256, associativity=4),
            )
        )
        for line in range(5):  # fifth access evicts line 0 from L2
            demand(hierarchy, line)
        assert not hierarchy.l1.contains(0)
        assert not hierarchy.l2.contains(0)

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=300))
    def test_inclusion_invariant_holds(self, lines):
        hierarchy = tiny_hierarchy(l1_bytes=256, l2_bytes=512)
        for index, line in enumerate(lines):
            if index % 5 == 4:
                prefetch(hierarchy, line)
            else:
                demand(hierarchy, line)
            for resident in hierarchy.l1.resident_lines():
                assert hierarchy.l2.contains(resident), (
                    f"L1 line {resident} missing from inclusive L2"
                )
