"""Differential tests: implementations vs clean-room oracles.

Every prefetcher with an oracle is replayed over real workload traces
and the fuzzer's synthetic seeds; any divergence fails with the first
mismatching event and a machine-state dump.  The hierarchy and both
engine implementations are cross-checked the same way.
"""

from __future__ import annotations

import pytest

from repro.check.diff import (
    DIFF_PREFETCHERS,
    diff_all,
    diff_engine,
    diff_hierarchy,
    diff_prefetcher,
)
from repro.check.fuzz import seed_traces
from repro.check.oracles import ORACLE_FACTORIES, make_oracle
from repro.workloads import build_trace, get_workload

ORACLE_WORKLOADS = ["stencil-default", "429.mcf-ref", "canneal-simlarge"]


@pytest.fixture(scope="module")
def workload_traces():
    return [
        build_trace(get_workload(name), max_accesses=4000, seed=0)
        for name in ORACLE_WORKLOADS
    ]


@pytest.fixture(scope="module")
def synthetic_traces():
    return seed_traces()


class TestOracleRegistry:
    def test_every_diff_prefetcher_has_an_oracle(self):
        for name in DIFF_PREFETCHERS:
            assert name in ORACLE_FACTORIES
            assert make_oracle(name) is not None

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError):
            make_oracle("definitely-not-a-prefetcher")


class TestPrefetcherOracles:
    @pytest.mark.parametrize("name", DIFF_PREFETCHERS)
    def test_matches_on_workloads(self, name, workload_traces):
        for trace in workload_traces:
            divergence = diff_prefetcher(name, trace)
            assert divergence is None, str(divergence)

    @pytest.mark.parametrize("name", DIFF_PREFETCHERS)
    def test_matches_on_synthetic_seeds(self, name, synthetic_traces):
        for trace in synthetic_traces:
            divergence = diff_prefetcher(name, trace)
            assert divergence is None, str(divergence)


class TestHierarchyOracle:
    def test_matches_on_workloads(self, workload_traces):
        for trace in workload_traces:
            divergence = diff_hierarchy(trace)
            assert divergence is None, str(divergence)

    def test_matches_on_synthetic_seeds(self, synthetic_traces):
        for trace in synthetic_traces:
            divergence = diff_hierarchy(trace)
            assert divergence is None, str(divergence)


class TestEngineDiff:
    @pytest.mark.parametrize("name", ["cbws", "cbws+sms", "sms"])
    def test_fast_vs_reference_on_workloads(self, name, workload_traces):
        for trace in workload_traces:
            divergence = diff_engine(name, trace)
            assert divergence is None, str(divergence)


class TestDiffAll:
    def test_clean_on_seed(self, synthetic_traces):
        divergences = diff_all(
            synthetic_traces[0], engine_names=["cbws"]
        )
        assert divergences == []


class TestHarnessSensitivity:
    """The harness must actually detect a wrong implementation."""

    def test_oracle_with_wrong_degree_diverges(self, synthetic_traces):
        from repro.check.oracles import StrideOracle

        divergence = None
        for trace in synthetic_traces:
            divergence = diff_prefetcher(
                "stride", trace, oracle_factory=lambda: StrideOracle(degree=1)
            )
            if divergence is not None:
                break
        assert divergence is not None
        assert divergence.kind == "prefetcher"

    def test_engine_oracle_catches_fast_hierarchy_policy_bug(self, monkeypatch):
        # The engine oracle shares no cache code with the fast path, so a
        # replacement-policy bug there must surface as an engine divergence.
        from dataclasses import replace

        from repro.memory.cache import CacheConfig
        from repro.memory.hierarchy import CacheHierarchy
        from repro.sim.config import REDUCED_CONFIG
        from repro.workloads.base import access_budget

        hierarchy = REDUCED_CONFIG.hierarchy
        config = replace(REDUCED_CONFIG, hierarchy=replace(
            hierarchy,
            l1=CacheConfig(name="L1D", size_bytes=1024, associativity=2,
                           latency=hierarchy.l1.latency, mshrs=hierarchy.l1.mshrs),
            l2=CacheConfig(name="L2", size_bytes=4096, associativity=4,
                           latency=hierarchy.l2.latency, mshrs=hierarchy.l2.mshrs),
        ))
        spec = get_workload("429.mcf-ref")
        trace = build_trace(spec, max_accesses=access_budget(spec, 1.0, 0.05))
        assert diff_engine("sms", trace, config=config) is None

        install_at_lru = CacheHierarchy.prefetch_fill_fast

        def install_at_mru(self, line, evictions):
            filled = install_at_lru(self, line, evictions)
            if filled:
                self.l2._sets[line & self.l2._index_mask].move_to_end(line)
            return filled

        monkeypatch.setattr(CacheHierarchy, "prefetch_fill_fast", install_at_mru)
        divergence = diff_engine("sms", trace, config=config)
        assert divergence is not None
        assert divergence.kind == "engine"
