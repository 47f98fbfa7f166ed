"""Tests for the trace-driven simulation engine and timing model."""

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.none import NoPrefetcher
from repro.sim.config import CoreConfig, PrefetchPathConfig, SimConfig
from repro.sim.engine import simulate
from repro.sim.results import DemandClass
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
from repro.trace.stream import Trace


def tiny_config(**prefetch_kwargs):
    return SimConfig(
        hierarchy=HierarchyConfig(
            l1=CacheConfig(name="L1", size_bytes=512, associativity=2),
            l2=CacheConfig(name="L2", size_bytes=4096, associativity=4),
        ),
        core=CoreConfig(),
        prefetch=PrefetchPathConfig(**prefetch_kwargs)
        if prefetch_kwargs
        else PrefetchPathConfig(),
    )


def mem_trace(lines, gap=10):
    """One access per line, `gap` instructions apart."""
    events = [
        MemoryAccess(gap * (index + 1), 0x400000, line * 64, False)
        for index, line in enumerate(lines)
    ]
    return Trace("crafted", events, gap * (len(lines) + 1))


class _ScriptedPrefetcher(Prefetcher):
    """Issues a fixed list of candidate lines on the first access."""

    name = "scripted"

    def __init__(self, candidates):
        self.candidates = list(candidates)
        self.fired = False

    def on_access(self, pc, line, address, l1_hit):
        if not self.fired:
            self.fired = True
            return list(self.candidates)
        return []


class TestBaselineTiming:
    def test_all_hits_runs_at_full_width(self):
        trace = mem_trace([0, 0, 0, 0])
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        # One cold miss; the rest hit L1.  IPC near the 4-wide limit is
        # impossible (300-cycle miss), but cycles must be dominated by
        # the single miss, not by the hits.
        assert result.cycles == pytest.approx(
            trace.instructions / 4 + 300, rel=0.05
        )

    def test_independent_misses_overlap_in_rob_window(self):
        # Four misses 10 instructions apart: all fit one ROB window and
        # 4 L1 MSHRs, so total stall is ~one memory latency.
        trace = mem_trace([0, 10, 20, 30], gap=10)
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        assert result.cycles < 300 + 100

    def test_mshr_limit_serializes_excess_misses(self):
        # Eight misses in one window exceed the 4 L1 MSHRs: at least two
        # memory round-trips.
        trace = mem_trace([line * 10 for line in range(8)], gap=10)
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        assert result.cycles > 2 * 300

    def test_distant_misses_serialize(self):
        # Two misses 1000 instructions apart cannot overlap (ROB = 128);
        # each hides at most ROB/width = 32 cycles of progress.
        trace = mem_trace([0, 100], gap=1000)
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        hidden = 128 / 4
        assert result.cycles == pytest.approx(
            trace.instructions / 4 + 2 * (300 - hidden), rel=0.05
        )

    def test_ipc_and_mpki_consistency(self):
        trace = mem_trace(range(0, 64, 2))
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        assert result.ipc == pytest.approx(
            result.instructions / result.cycles
        )
        assert result.mpki == pytest.approx(
            1000 * result.llc_misses / result.instructions
        )


class TestClassification:
    def test_no_prefetch_is_all_missing(self):
        trace = mem_trace(range(0, 40, 2))
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        assert result.classes[DemandClass.MISSING] == result.l1_misses
        assert result.classes[DemandClass.TIMELY] == 0

    def test_timely_prefetch(self):
        # Prefetch for line 99 issued on the first access; the demand
        # arrives thousands of cycles later (big icount gap) -> timely.
        events = [
            MemoryAccess(10, 0x400000, 0, False),
            MemoryAccess(10_000, 0x400000, 99 * 64, False),
        ]
        trace = Trace("t", events, 10_100)
        result = simulate(tiny_config(), _ScriptedPrefetcher([99]), trace)
        assert result.classes[DemandClass.TIMELY] == 1
        assert result.prefetches_issued == 1
        assert result.useful_prefetches == 1
        assert result.wrong_prefetches == 0

    def test_shorter_waiting_time(self):
        # The demand follows the prefetch too closely to complete.
        events = [
            MemoryAccess(10, 0x400000, 0, False),
            MemoryAccess(20, 0x400000, 99 * 64, False),
        ]
        trace = Trace("t", events, 100)
        result = simulate(tiny_config(), _ScriptedPrefetcher([99]), trace)
        assert result.classes[DemandClass.SHORTER_WAITING] == 1
        assert result.useful_prefetches == 1

    def test_non_timely_when_queue_starved(self):
        # Issue bandwidth of one per 10_000 cycles: the second candidate
        # is still queued when its demand arrives.
        events = [
            MemoryAccess(10, 0x400000, 0, False),
            MemoryAccess(5000, 0x400000, 98 * 64, False),
            MemoryAccess(5010, 0x400000, 99 * 64, False),
        ]
        trace = Trace("t", events, 5100)
        config = tiny_config(issue_interval=10_000, queue_capacity=8,
                             max_in_flight=4)
        result = simulate(config, _ScriptedPrefetcher([98, 99]), trace)
        assert result.classes[DemandClass.NON_TIMELY] >= 1

    def test_wrong_prefetch_counted_at_end(self):
        events = [MemoryAccess(10, 0x400000, 0, False),
                  MemoryAccess(10_000, 0x400000, 64, False)]
        trace = Trace("t", events, 10_100)
        result = simulate(tiny_config(), _ScriptedPrefetcher([500]), trace)
        assert result.wrong_prefetches == 1
        assert result.useful_prefetches == 0

    def test_classes_partition_l1_misses(self):
        trace = mem_trace(range(0, 120, 3))
        result = simulate(tiny_config(), _ScriptedPrefetcher(range(0, 60)),
                          trace)
        partitioned = sum(
            result.classes[cls]
            for cls in (
                DemandClass.TIMELY,
                DemandClass.SHORTER_WAITING,
                DemandClass.NON_TIMELY,
                DemandClass.MISSING,
                DemandClass.PLAIN_HIT,
            )
        )
        assert partitioned == result.l1_misses


class TestPrefetchPath:
    def test_redundant_candidates_not_issued(self):
        events = [
            MemoryAccess(10, 0x400000, 0, False),     # line 0 now in L2
            MemoryAccess(2000, 0x400000, 64, False),
        ]
        trace = Trace("t", events, 2100)
        result = simulate(tiny_config(), _ScriptedPrefetcher([0, 0, 7]), trace)
        assert result.prefetches_issued == 1  # only line 7

    def test_queue_capacity_drops_excess(self):
        events = [MemoryAccess(10, 0x400000, 0, False)]
        trace = Trace("t", events, 100)
        config = tiny_config(queue_capacity=4, issue_interval=10_000,
                             max_in_flight=4)
        result = simulate(config, _ScriptedPrefetcher(range(100, 200)), trace)
        # At most `queue_capacity` candidates could ever be issued.
        assert result.prefetches_issued <= 4

    def test_prefetch_bytes_accounted(self):
        events = [MemoryAccess(10, 0x400000, 0, False),
                  MemoryAccess(5000, 0x400000, 64, False)]
        trace = Trace("t", events, 5100)
        result = simulate(tiny_config(), _ScriptedPrefetcher([9, 10]), trace)
        assert result.prefetch_bytes_read == 2 * 64

    def test_block_markers_drive_prefetcher_callbacks(self):
        calls = []

        class Recorder(Prefetcher):
            name = "recorder"

            def on_trace(self, trace, line_shift):
                calls.append(("trace", trace.name, line_shift))

            def on_block_end(self, block_id):
                calls.append(("end", block_id))
                return []

        events = [BlockBegin(5, 3), MemoryAccess(6, 0, 0, False),
                  BlockEnd(7, 3)]
        simulate(tiny_config(), Recorder(), Trace("t", events, 10))
        assert calls == [("trace", "t", 6), ("end", 3)]

    def test_l1_evictions_reported_to_prefetcher(self):
        evictions = []

        class Recorder(Prefetcher):
            name = "recorder"

            def on_l1_eviction(self, line):
                evictions.append(line)

        # L1 has 8 lines (512 B, 2-way, 4 sets); touch 24 lines.
        trace = mem_trace(range(24))
        simulate(tiny_config(), Recorder(), trace)
        assert evictions, "L1 capacity evictions must be reported"


class _Recorder(Prefetcher):
    """Overrides only ``on_access``, and records each call."""

    name = "recorder"

    def __init__(self, candidates=()):
        self.candidates = list(candidates)
        self.accesses = 0

    def on_access(self, pc, line, address, l1_hit):
        self.accesses += 1
        return list(self.candidates) if self.accesses == 1 else []


def _blocks_and_evictions_trace():
    """Block markers, and more distinct lines than the tiny L1 holds."""
    events = [MemoryAccess(10, 0x400000, 0, False),
              BlockBegin(20, 1), BlockEnd(30, 1)]
    events += [MemoryAccess(5000 + 10 * n, 0x400000, 64 * n, False)
               for n in range(24)]
    events += [BlockBegin(6000, 1), BlockEnd(6010, 1)]
    return Trace("hooks", events, 6100)


class TestPrefetcherInterface:
    def test_base_methods_are_the_ones_called(self):
        """The base class's public methods are exactly the hooks
        something calls: the engine's five, and ``on_block_begin``,
        which only perfbench's tracer wraps."""
        import inspect

        from repro.sim import engine

        public = {name for name, value in vars(Prefetcher).items()
                  if callable(value) and not name.startswith("_")}
        called = {"on_trace", "on_access", "on_block_end",
                  "on_l1_eviction", "storage_bits"}
        assert public == called | {"on_block_begin"}
        source = inspect.getsource(engine.SimulationEngine)
        for hook in called:
            assert f"prefetcher.{hook}" in source, hook


class TestHookSkip:
    """The engine calls only the hooks a prefetcher's class overrides."""

    @pytest.fixture
    def base_hook_calls(self, monkeypatch):
        calls = []

        def on_block_end(self, block_id):
            calls.append(("on_block_end", block_id))
            return []

        def on_l1_eviction(self, line):
            calls.append(("on_l1_eviction", line))

        monkeypatch.setattr(Prefetcher, "on_block_end", on_block_end)
        monkeypatch.setattr(Prefetcher, "on_l1_eviction", on_l1_eviction)
        return calls

    def test_access_only_prefetcher_gets_no_other_hook(self, base_hook_calls):
        from repro.check.reference import run_reference
        from repro.sim.engine import SimulationEngine

        trace = _blocks_and_evictions_trace()
        prefetcher = _Recorder()
        result = simulate(tiny_config(), prefetcher, trace)
        assert prefetcher.accesses == result.demand_accesses == 25
        assert base_hook_calls == []
        # The oracle calls every hook, so the trace does reach them.
        run_reference(SimulationEngine(tiny_config(), _Recorder()), trace)
        called = {hook for hook, _ in base_hook_calls}
        assert called == {"on_block_end", "on_l1_eviction"}

    def test_skipped_block_end_enqueues_nothing(self):
        """A BLOCK_END whose hook is skipped must not re-enqueue the
        previous access's candidates (queue of one: a re-enqueue would
        issue the dropped line 10)."""
        from repro.check.reference import run_reference
        from repro.sim.engine import SimulationEngine

        config = tiny_config(queue_capacity=1)
        trace = _blocks_and_evictions_trace()
        fast = simulate(config, _Recorder([9, 10]), trace)
        reference = run_reference(
            SimulationEngine(config, _Recorder([9, 10])), trace)
        assert fast.prefetches_issued == 1
        assert fast.to_dict() == reference.to_dict()

    def test_on_access_gets_four_plain_arguments(self, monkeypatch):
        """Each access reaches ``on_access`` as the positional values
        ``(pc, line, address, l1_hit)``, the same stream on both
        engines; a prefetcher without an ``on_access`` gets no call."""
        from repro.check.reference import run_reference
        from repro.sim.engine import SimulationEngine

        class ArgsRecorder(Prefetcher):
            name = "args-recorder"

            def __init__(self):
                self.calls = []

            def on_access(self, *args):
                self.calls.append(args)
                return []

        trace = _blocks_and_evictions_trace()
        fast = ArgsRecorder()
        simulate(tiny_config(), fast, trace)
        assert len(fast.calls) == 25
        assert all(len(args) == 4 for args in fast.calls)
        assert all(
            line == address >> 6 and type(l1_hit) is bool
            for _, line, address, l1_hit in fast.calls
        )
        assert {l1_hit for *_, l1_hit in fast.calls} == {True, False}
        reference = ArgsRecorder()
        run_reference(SimulationEngine(tiny_config(), reference), trace)
        assert reference.calls == fast.calls

        base_calls = []

        def on_access(self, *args):
            base_calls.append(args)
            return []

        monkeypatch.setattr(Prefetcher, "on_access", on_access)
        simulate(tiny_config(), NoPrefetcher(), trace)
        assert base_calls == []


class TestResultMetadata:
    def test_result_identifies_run(self):
        trace = mem_trace([0, 1])
        result = simulate(tiny_config(), NoPrefetcher(), trace)
        assert result.workload == "crafted"
        assert result.prefetcher == "no-prefetch"
        assert result.demand_accesses == 2
        assert result.storage_bits == 0
