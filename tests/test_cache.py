"""Tests of one cache level's geometry and of the replacement policy.

The policy lives in :class:`~repro.memory.hierarchy.CacheHierarchy`, so
the policy tests drive it through ``demand_access_fast`` and
``prefetch_fill_fast`` on tiny geometries, and the property test holds
it to the clean-room :class:`~repro.check.oracles.HierarchyOracle`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import invariants
from repro.check.oracles import HierarchyOracle
from repro.common.errors import ConfigError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import (
    FAST_L1_HIT,
    FAST_MEMORY,
    CacheHierarchy,
    HierarchyConfig,
)

_OUTCOMES = {0: "l1", 1: "l2", 2: "l2-prefetch", 3: "memory"}


def small_hierarchy(l1_ways=2, l1_sets=4, l2_ways=None, l2_sets=None):
    """A hierarchy whose L2 defaults to the L1's geometry."""
    l2_ways = l1_ways if l2_ways is None else l2_ways
    l2_sets = l1_sets if l2_sets is None else l2_sets
    return CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(name="L1", size_bytes=64 * l1_ways * l1_sets,
                           associativity=l1_ways),
            l2=CacheConfig(name="L2", size_bytes=64 * l2_ways * l2_sets,
                           associativity=l2_ways),
        )
    )


def demand(hierarchy, line):
    evictions = []
    code = hierarchy.demand_access_fast(line, evictions)
    return code, evictions


def prefetch(hierarchy, line):
    return hierarchy.prefetch_fill_fast(line, [])


class TestConfig:
    def test_geometry_derived(self):
        config = CacheConfig(name="l1", size_bytes=4096, associativity=4)
        assert config.num_lines == 64
        assert config.num_sets == 16

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(name="x", size_bytes=0, associativity=4)
        with pytest.raises(ConfigError):
            CacheConfig(name="x", size_bytes=1000, associativity=4)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(name="x", size_bytes=64 * 3, associativity=1)


class TestBasicOperation:
    def test_miss_then_hit(self):
        hierarchy = small_hierarchy()
        assert demand(hierarchy, 5)[0] == FAST_MEMORY
        assert demand(hierarchy, 5)[0] == FAST_L1_HIT

    def test_lru_eviction_order(self):
        hierarchy = small_hierarchy(l1_ways=2, l1_sets=1, l2_ways=4)
        demand(hierarchy, 0)
        demand(hierarchy, 1)
        assert demand(hierarchy, 2) == (FAST_MEMORY, [0])  # evicts 0 (LRU)
        assert hierarchy.l1.contains(1) and hierarchy.l1.contains(2)

    def test_access_refreshes_lru(self):
        hierarchy = small_hierarchy(l1_ways=2, l1_sets=1, l2_ways=4)
        demand(hierarchy, 0)
        demand(hierarchy, 1)
        demand(hierarchy, 0)  # 1 becomes LRU
        assert demand(hierarchy, 2)[1] == [1]

    def test_set_isolation(self):
        hierarchy = small_hierarchy(l1_ways=1, l1_sets=4)
        demand(hierarchy, 0)
        assert demand(hierarchy, 1)[1] == []  # different set (line & 3)
        assert hierarchy.l1.contains(0) and hierarchy.l1.contains(1)


class TestPrefetchSemantics:
    def test_prefetch_flag_tracked(self):
        hierarchy = small_hierarchy()
        prefetch(hierarchy, 7)
        assert hierarchy.l2.is_unused_prefetch(7)

    def test_demand_access_clears_flag(self):
        hierarchy = small_hierarchy()
        prefetch(hierarchy, 7)
        demand(hierarchy, 7)
        assert not hierarchy.l2.is_unused_prefetch(7)

    def test_prefetch_inserts_at_lru(self):
        hierarchy = small_hierarchy(l1_ways=1, l1_sets=1, l2_ways=2)
        demand(hierarchy, 0)    # demand, MRU
        prefetch(hierarchy, 2)  # prefetch, LRU
        demand(hierarchy, 4)    # evicts the prefetch first
        assert not hierarchy.l2.contains(2)
        assert hierarchy.l2.contains(0) and hierarchy.l2.contains(4)
        assert hierarchy.stats.wrong_prefetch_evictions == 1

    def test_promoted_prefetch_survives(self):
        hierarchy = small_hierarchy(l1_ways=1, l1_sets=1, l2_ways=2)
        demand(hierarchy, 0)
        prefetch(hierarchy, 2)
        demand(hierarchy, 2)  # promote to MRU
        demand(hierarchy, 4)
        assert hierarchy.l2.contains(2)
        assert not hierarchy.l2.contains(0)

    def test_eviction_reports_unused_prefetch(self):
        hierarchy = small_hierarchy(l1_ways=1, l1_sets=1)
        prefetch(hierarchy, 0)
        demand(hierarchy, 1)
        assert hierarchy.stats.wrong_prefetch_evictions == 1

    def test_redundant_prefetch_keeps_demand_status(self):
        hierarchy = small_hierarchy(l1_ways=2, l1_sets=1)
        demand(hierarchy, 0)  # demand line at MRU
        assert not prefetch(hierarchy, 0)
        assert not hierarchy.l2.is_unused_prefetch(0)


_SETS = st.sampled_from([1, 2, 4])
_WAYS = st.integers(min_value=1, max_value=4)
_GEOMETRIES = st.tuples(_SETS, _WAYS, _SETS, _WAYS).filter(
    lambda g: g[2] * g[3] >= g[0] * g[1]  # inclusive L2 >= L1
)
_OPERATIONS = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
    max_size=200,
)


class TestLruProperty:
    """The hierarchy's replacement policy against the clean-room oracle."""

    @settings(max_examples=100, deadline=None)
    @given(_GEOMETRIES, _OPERATIONS)
    def test_matches_reference_model(self, geometry, operations):
        l1_sets, l1_ways, l2_sets, l2_ways = geometry
        oracle = HierarchyOracle(l1_sets, l1_ways, l2_sets, l2_ways)
        invariants.enable()  # every fill also checks inclusion and set bounds
        try:
            hierarchy = small_hierarchy(l1_ways, l1_sets, l2_ways, l2_sets)
            for is_prefetch, line in operations:
                evictions = []
                if is_prefetch:
                    got = (hierarchy.prefetch_fill_fast(line, evictions), evictions)
                    expected = oracle.prefetch_fill(line)
                else:
                    code = hierarchy.demand_access_fast(line, evictions)
                    got = (_OUTCOMES[code], evictions)
                    expected = oracle.demand_access(line)
                assert got == expected, (is_prefetch, line)
        finally:
            invariants.disable()
        assert vars(hierarchy.stats) == oracle.stats
        for index, cache_set in enumerate(hierarchy.l2._sets):
            assert list(cache_set.items()) == [
                (line, bool(unused)) for line, unused in oracle.l2.sets[index]
            ]
