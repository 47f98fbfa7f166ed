"""Tests for the reuse-distance (LRU stack distance) analysis."""

import pytest

from conftest import cold_fraction, hit_ratio_at, working_set_lines
from repro.analysis.reuse import COLD, reuse_profile
from repro.harness.runner import GridRunner
from repro.trace.events import MemoryAccess
from repro.trace.stream import Trace


def trace_of(lines):
    events = [
        MemoryAccess(i + 1, 0, line * 64, False)
        for i, line in enumerate(lines)
    ]
    return Trace("t", events, len(lines) + 1)


class TestStackDistance:
    def test_first_touches_are_cold(self):
        profile = reuse_profile(trace_of([1, 2, 3]))
        assert profile.histogram == {COLD: 3}
        assert cold_fraction(profile) == 1.0

    def test_immediate_reuse_is_distance_zero(self):
        profile = reuse_profile(trace_of([7, 7, 7]))
        assert profile.histogram == {COLD: 1, 0: 2}

    def test_classic_example(self):
        # a b c a : the second 'a' has seen 2 distinct lines since.
        profile = reuse_profile(trace_of([1, 2, 3, 1]))
        assert profile.histogram[2] == 1

    def test_reorder_after_reuse(self):
        # a b a b : both reuses at distance 1.
        profile = reuse_profile(trace_of([1, 2, 1, 2]))
        assert profile.histogram == {COLD: 2, 1: 2}

    def test_lru_cache_hit_prediction(self):
        """hit_ratio_at(C) equals a simulated fully-associative LRU."""
        import random

        rng = random.Random(9)
        lines = [rng.randrange(12) for _ in range(400)]
        profile = reuse_profile(trace_of(lines))
        for capacity in (1, 2, 4, 8, 16):
            # Reference fully-associative LRU.
            cache: list[int] = []
            hits = 0
            for line in lines:
                if line in cache:
                    hits += 1
                    cache.remove(line)
                elif len(cache) >= capacity:
                    cache.pop(0)
                cache.append(line)
            assert hit_ratio_at(profile, capacity) == pytest.approx(
                hits / len(lines)
            ), f"capacity {capacity}"

    def test_working_set_lines(self):
        # A loop over 8 lines: every reuse at distance 7.
        lines = list(range(8)) * 10
        profile = reuse_profile(trace_of(lines))
        assert working_set_lines(profile) == 8

    def test_empty_trace(self):
        profile = reuse_profile(Trace("t", [], 0))
        assert profile.accesses == 0
        assert hit_ratio_at(profile, 100) == 0.0
        assert working_set_lines(profile) == 0


class TestWorkloadFootprints:
    """The reduced-scale premise: MI workloads overflow the reduced L2,
    low-MPKI workloads largely fit it."""

    @pytest.fixture(scope="class")
    def runner(self):
        return GridRunner(budget_fraction=0.08)

    L1_LINES = 4 * 1024 // 64
    L2_LINES = 128 * 1024 // 64

    def test_streaming_workload_gains_nothing_from_l2(self, runner):
        """libquantum's only reuse is spatial (within a line, distance
        ~0); the L2's extra capacity buys essentially nothing."""
        profile = reuse_profile(runner.trace("462.libquantum-ref"))
        gain = (hit_ratio_at(profile, self.L2_LINES)
                - hit_ratio_at(profile, self.L1_LINES))
        assert gain < 0.05

    def test_resident_workload_exploits_l2(self):
        """mxm's matrices exceed the L1 but fit the L2: the capacity
        between them captures real reuse.  Needs a couple of full outer
        iterations, hence its own larger budget."""
        profile = reuse_profile(
            GridRunner(budget_fraction=0.4).trace("mxm-linpack")
        )
        gain = (hit_ratio_at(profile, self.L2_LINES)
                - hit_ratio_at(profile, self.L1_LINES))
        assert gain > 0.03  # B-matrix re-walks land between L1 and L2
        assert hit_ratio_at(profile, self.L2_LINES) > 0.95
