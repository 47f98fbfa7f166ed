"""Tests for the coverage-driven fuzzer, shrinker, and fault injection."""

from __future__ import annotations

import pytest

from repro.check.diff import diff_prefetcher
from repro.check.fuzz import (
    INJECTIONS,
    collect_features,
    mutate,
    run_fuzz,
    run_injection,
    seed_traces,
    shrink,
)
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS


class TestSeedCorpus:
    def test_seeds_are_valid_and_distinct(self):
        seeds = seed_traces()
        assert len(seeds) >= 4
        names = {trace.name for trace in seeds}
        assert len(names) == len(seeds)
        for trace in seeds:
            trace.validate()

    def test_seeds_cover_core_features(self):
        features = set()
        for trace in seed_traces():
            features |= collect_features(
                trace, ["stride", "cbws", "sms", "markov"]
            )
        assert "stride:steady" in features
        assert "cbws:train" in features
        assert "cbws:overflow" in features
        assert "markov:train" in features


class TestMutation:
    def test_mutants_stay_valid(self):
        rng = DeterministicRng(11)
        seeds = seed_traces()
        for generation in range(200):
            parent = rng.choice(seeds)
            child = mutate(parent, rng, generation)
            child.validate()  # would raise on broken markers/icounts
            kinds = [event.kind for event in child.events]
            assert kinds.count(BLOCK_BEGIN) == kinds.count(BLOCK_END)
            for event in child.events:
                if event.kind == MEMORY_ACCESS:
                    assert event.address >= 0

    def test_mutation_changes_something_eventually(self):
        rng = DeterministicRng(3)
        parent = seed_traces()[0]
        changed = any(
            [e.kind for e in mutate(parent, rng, g).events]
            != [e.kind for e in parent.events]
            or [getattr(e, "address", None) for e in mutate(parent, rng, g).events]
            != [getattr(e, "address", None) for e in parent.events]
            for g in range(20)
        )
        assert changed


class TestHonestFuzz:
    def test_short_run_finds_no_divergence(self):
        report = run_fuzz(1.5, seed=7, names=["stride", "cbws"])
        assert report.divergences == []
        assert report.iterations > 0
        assert report.corpus_size >= len(seed_traces())
        assert report.features


class TestShrink:
    def test_shrink_preserves_failure_and_reduces(self):
        trace = seed_traces()[0]

        def too_many_accesses(candidate):
            return sum(
                1 for event in candidate.events
                if event.kind == MEMORY_ACCESS
            ) >= 3

        assert too_many_accesses(trace)
        small = shrink(trace, too_many_accesses)
        assert too_many_accesses(small)
        assert len(small.events) < len(trace.events)
        small.validate()


class TestFaultInjection:
    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection"):
            run_injection("no-such-fault", budget_seconds=1.0)

    def test_cbws_fifo_off_by_one_is_caught_and_shrunk(self):
        # The headline acceptance criterion: a one-line capacity bug in
        # the CBWS current-working-set FIFO must be caught and the
        # counterexample shrunk to at most 50 events.
        result = run_injection("cbws-fifo-off-by-one",
                               budget_seconds=30.0, seed=7)
        assert result.caught
        assert result.divergence is not None
        assert result.counterexample is not None
        assert result.counterexample_events <= 50
        # The shrunken trace must still reproduce through the harness.
        name, impl_factory, oracle_factory = INJECTIONS["cbws-fifo-off-by-one"]
        replay = diff_prefetcher(
            name, result.counterexample,
            impl_factory=impl_factory, oracle_factory=oracle_factory,
        )
        assert replay is not None

    def test_memo_keeps_injected_and_honest_streams_apart(self):
        """The kept prediction stream is keyed by the predictor type, so
        the faulty CBWS and an honest one of the same geometry never
        replay each other's stream, in either order."""
        from repro.core.predictor import CbwsConfig
        from repro.core.prefetcher import CbwsPrefetcher
        from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
        from repro.trace.stream import Trace

        _, injected_factory, _ = INJECTIONS["cbws-fifo-off-by-one"]

        def honest_factory():
            return CbwsPrefetcher(CbwsConfig(max_vector_members=4))

        def four_line_blocks():
            events = []
            for n in range(8):
                events.append(BlockBegin(0, 1))
                events += [MemoryAccess(0, 0, (1000 + 4 * n + k) << 6, False)
                           for k in range(4)]
                events.append(BlockEnd(0, 1))
            return Trace("four-line-blocks", events, 0)

        def replay(prefetcher, trace):
            prefetcher.on_trace(trace, 6)
            return [prefetcher.on_block_end(1) for _ in range(8)]

        honest_alone = replay(honest_factory(), four_line_blocks())
        injected_alone = replay(injected_factory(), four_line_blocks())
        assert honest_alone != injected_alone
        shared = four_line_blocks()
        for _ in range(2):
            assert replay(honest_factory(), shared) == honest_alone
            assert replay(injected_factory(), shared) == injected_alone

    @pytest.mark.learned
    def test_pangloss_lfu_off_by_one_is_caught_and_shrunk(self):
        # Same acceptance criterion for the learned family: a fencepost
        # in Pangloss's LFU decay threshold must be caught and shrunk.
        result = run_injection("pangloss-lfu-off-by-one",
                               budget_seconds=30.0, seed=7)
        assert result.caught
        assert result.divergence is not None
        assert result.counterexample is not None
        assert result.counterexample_events <= 50
        name, impl_factory, oracle_factory = (
            INJECTIONS["pangloss-lfu-off-by-one"]
        )
        replay = diff_prefetcher(
            name, result.counterexample,
            impl_factory=impl_factory, oracle_factory=oracle_factory,
        )
        assert replay is not None
