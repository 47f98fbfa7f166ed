"""Equivalence tests for the hot-path engine rewrite.

The columnar fast path (:meth:`SimulationEngine.run`), the incremental
GHB delta matcher, and the CBWS/SMS micro-optimizations must all be
behaviour-preserving: every test here pins an optimized implementation
against its readable reference.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.check.diff import config_with_line_size
from repro.check.reference import hierarchy_oracle_for, run_reference
from repro.harness.registry import PREFETCHER_FACTORIES
from repro.prefetchers.ghb import _GLOBAL_KEY, GhbConfig, GhbPrefetcher
from repro.sim.config import REDUCED_CONFIG
from repro.sim.engine import SimulationEngine, simulate
from repro.trace.columnar import EventColumns
from repro.workloads.base import build_trace, get_workload

EQUIV_WORKLOADS = [
    "stencil-default",
    "429.mcf-ref",
    "462.libquantum-ref",
    "canneal-simlarge",
]


def _trace(name: str, budget: int = 12000):
    return build_trace(get_workload(name), max_accesses=budget, seed=0)


class TestFastPathEquivalence:
    """`run` must be bit-identical to `run_reference`."""

    @pytest.mark.parametrize("workload", EQUIV_WORKLOADS)
    @pytest.mark.parametrize("prefetcher_name", sorted(PREFETCHER_FACTORIES))
    def test_bit_identical_results(self, workload, prefetcher_name):
        trace = _trace(workload)
        factory = PREFETCHER_FACTORIES[prefetcher_name]
        fast = SimulationEngine(REDUCED_CONFIG, factory()).run(trace)
        reference = run_reference(
            SimulationEngine(REDUCED_CONFIG, factory()), trace)
        assert fast.to_dict() == reference.to_dict()

    def test_hierarchy_stats_match(self):
        trace = _trace("stencil-default")
        factory = PREFETCHER_FACTORIES["cbws+sms"]
        fast = SimulationEngine(REDUCED_CONFIG, factory())
        oracle = hierarchy_oracle_for(REDUCED_CONFIG)
        fast.run(trace)
        run_reference(SimulationEngine(REDUCED_CONFIG, factory()), trace, oracle)
        assert vars(fast.hierarchy.stats) == oracle.stats

    def test_profiling_does_not_change_results(self):
        trace = _trace("429.mcf-ref")
        factory = PREFETCHER_FACTORIES["cbws"]
        plain = simulate(REDUCED_CONFIG, factory(), trace)
        obs.reset()
        obs.enable()
        try:
            profiled = simulate(REDUCED_CONFIG, factory(), trace)
            snapshot = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert plain.to_dict() == profiled.to_dict()
        assert snapshot["counters"]["sim.events"] == len(trace.events)


class TestLineSizeDerivation:
    """The engine must derive its line shift from the configured line
    size (it was hardcoded to 6 == 64-byte lines)."""

    def test_line_size_128_halves_distinct_lines(self):
        trace = _trace("stencil-default", budget=4000)
        r64 = simulate(
            config_with_line_size(64),
            PREFETCHER_FACTORIES["no-prefetch"](),
            trace,
        )
        r128 = simulate(
            config_with_line_size(128),
            PREFETCHER_FACTORIES["no-prefetch"](),
            trace,
        )
        # Same accesses, but 128-byte lines halve the footprint in lines,
        # so the bigger line must not behave identically to 64-byte lines
        # and must not miss more.
        assert r128.demand_accesses == r64.demand_accesses
        assert r128.l1_misses != r64.l1_misses
        assert r128.llc_misses <= r64.llc_misses

    @pytest.mark.parametrize("line_size", [64, 128])
    @pytest.mark.parametrize("prefetcher_name", sorted(PREFETCHER_FACTORIES))
    def test_fast_path_respects_line_size(self, prefetcher_name, line_size):
        # Every prefetcher config, both line geometries, checked through
        # the differential harness: the fast path must stay bit-identical
        # to the reference engine (results and hierarchy stats).
        from repro.check.diff import config_with_line_size, diff_engine

        trace = _trace("462.libquantum-ref", budget=6000)
        divergence = diff_engine(
            prefetcher_name, trace, config=config_with_line_size(line_size)
        )
        assert divergence is None, str(divergence)


class TestColumnarTrace:
    def test_round_trip_equals_events(self):
        trace = _trace("stencil-default", budget=3000)
        columns = trace.columns()
        events = list(columns.iter_events())
        assert len(events) == len(trace)
        assert EventColumns.from_events(events).arrays() == columns.arrays()

    def test_columns_cached(self):
        trace = _trace("stencil-default", budget=1000)
        assert trace.columns() is trace.columns()


class TestGhbIncrementalMatcher:
    """The O(1) dict-based matcher must reproduce the naive chain walk."""

    @pytest.mark.parametrize("mode", ["global", "pc"])
    @pytest.mark.parametrize("capacity", [4, 16, 64])
    def test_matches_naive_on_random_streams(self, mode, capacity):
        rng = random.Random(capacity * 1000 + len(mode))
        config = GhbConfig(
            mode=mode, buffer_entries=capacity, history_length=3, degree=3
        )
        prefetcher = GhbPrefetcher(config)
        lines = [rng.randrange(0, 40) for _ in range(10)]
        lines += [i * rng.choice([1, 2, 3]) for i in range(30)]
        pcs = [rng.randrange(0, 5) for _ in range(4)]
        for _ in range(2000):
            line = rng.choice(lines)
            key = _GLOBAL_KEY if mode == "global" else rng.choice(pcs)
            prefetcher.buffer.push(key, line)
            fast = prefetcher._predict_incremental(key, line)
            naive = prefetcher._predict(key)
            assert fast == naive

    def test_pruning_preserves_predictions(self):
        config = GhbConfig(mode="global", buffer_entries=8)
        prefetcher = GhbPrefetcher(config)
        rng = random.Random(7)
        # Far more pushes than 2x capacity so pruning triggers repeatedly.
        for _ in range(500):
            line = rng.choice([0, 4, 8, 12, 16, 20])
            prefetcher.buffer.push(_GLOBAL_KEY, line)
            assert prefetcher._predict_incremental(
                _GLOBAL_KEY, line
            ) == prefetcher._predict(_GLOBAL_KEY)
        history = prefetcher._histories[_GLOBAL_KEY]
        assert len(history.addresses) <= 2 * config.buffer_entries

    def test_reset_clears_matcher_state(self):
        prefetcher = GhbPrefetcher(GhbConfig(mode="global"))
        prefetcher.buffer.push(_GLOBAL_KEY, 1)
        prefetcher._predict_incremental(_GLOBAL_KEY, 1)
        prefetcher.reset()
        assert prefetcher._histories == {}
        assert len(prefetcher.buffer) == 0
