"""The engine oracle: the timing model written out one event at a time.

:meth:`repro.sim.engine.SimulationEngine.run` is the production loop.
It reads the trace's columnar arrays, calls the hierarchy's ``*_fast``
methods and inlines the prefetch queue.  :func:`run_reference` is the
same model written for reading: one :class:`~repro.trace.events.TraceEvent`
at a time, named helpers for the queue, and the clean-room
:class:`~repro.check.oracles.HierarchyOracle` as its cache, so it shares
no cache code with the production loop and a replacement-policy bug in
:mod:`repro.memory.hierarchy` shows up as a divergence.  The two must be
bit-identical: every float operation happens in the same order on the
same values.  :func:`repro.check.diff.diff_engine`, the fuzzer and the
engine equivalence tests hold the fast path to it.

The oracle calls every prefetcher hook on every event it applies to,
even a hook the prefetcher leaves as the base no-op, so comparing it
with the production loop, which skips such hooks, checks the skip.  It
runs the invariant checks of :mod:`repro.check.invariants` when they
are enabled, and records no probes.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.check import invariants
from repro.check.oracles import HierarchyOracle
from repro.common.bitops import log2_exact
from repro.sim.config import SimConfig
from repro.sim.engine import SimulationEngine
from repro.sim.results import DemandClass, SimResult
from repro.trace.events import BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace


def hierarchy_oracle_for(config: SimConfig) -> HierarchyOracle:
    """An empty hierarchy oracle with ``config``'s cache geometry."""
    l1, l2 = config.hierarchy.l1, config.hierarchy.l2
    return HierarchyOracle(
        l1_sets=l1.num_sets, l1_ways=l1.associativity,
        l2_sets=l2.num_sets, l2_ways=l2.associativity,
    )


def run_reference(
    engine: SimulationEngine,
    trace: Trace,
    hierarchy: HierarchyOracle | None = None,
) -> SimResult:
    """Simulate ``trace`` on ``engine``'s machine, one event object at a time.

    Uses the engine's config and prefetcher; the engine's own
    :class:`~repro.memory.hierarchy.CacheHierarchy` is never touched.  The
    caches are ``hierarchy``, or a fresh ``hierarchy_oracle_for(config)``
    when omitted; pass one in to read its ``stats`` afterwards.
    The prefetcher and ``hierarchy`` must be fresh: the oracle resets
    neither.
    """
    config = engine.config
    core = config.core
    prefetch_path = config.prefetch
    prefetcher = engine.prefetcher
    if hierarchy is None:
        hierarchy = hierarchy_oracle_for(config)
    l2_find = hierarchy.l2.find
    line_size = config.hierarchy.line_size
    line_shift = log2_exact(line_size)

    result = SimResult(
        workload=trace.name,
        prefetcher=prefetcher.name,
        instructions=trace.instructions,
        storage_bits=prefetcher.storage_bits(),
    )
    classes = result.classes

    inv_width = 1.0 / core.width
    rob = core.rob_entries
    l2_extra = float(core.l2_latency - core.l1_latency)
    mem_latency = float(core.memory_latency)
    mshr_limit = config.hierarchy.l1.mshrs
    issue_interval = float(prefetch_path.issue_interval)
    queue_capacity = prefetch_path.queue_capacity
    max_in_flight = prefetch_path.max_in_flight

    checking = invariants.enabled()
    checked_events = 0
    last_icount = 0
    last_next_issue = 0.0

    stall = 0.0
    window_start_icount = -1  # -1 means no open window
    window_start_time = 0.0
    window_end = 0.0
    window_count = 0

    queue: deque[int] = deque()
    queued: set[int] = set()
    in_flight: dict[int, float] = {}
    fill_heap: list[tuple[float, int]] = []
    next_issue = 0.0
    caught_in_flight = 0

    def drain_completions(now: float) -> None:
        """Install prefetches whose memory access has completed."""
        while fill_heap and fill_heap[0][0] <= now:
            completion, line = heapq.heappop(fill_heap)
            if in_flight.get(line) != completion:
                continue  # cancelled: the demand stream claimed it
            del in_flight[line]
            filled, evicted = hierarchy.prefetch_fill(line)
            if filled:
                result.prefetch_fills += 1
                for evicted_line in evicted:
                    prefetcher.on_l1_eviction(evicted_line)

    def issue_prefetches(now: float) -> None:
        """Consume issue bandwidth moving queued candidates to memory."""
        nonlocal next_issue
        while queue and next_issue <= now and len(in_flight) < max_in_flight:
            line = queue.popleft()
            if line not in queued:
                continue  # stale: consumed by a demand access already
            queued.discard(line)
            if l2_find(line) is not None or line in in_flight:
                continue  # redundant; never reaches the bus
            completion = next_issue + mem_latency
            in_flight[line] = completion
            heapq.heappush(fill_heap, (completion, line))
            result.prefetches_issued += 1
            result.prefetch_bytes_read += line_size
            next_issue += issue_interval

    def enqueue_candidates(candidates: list[int], now: float) -> None:
        nonlocal next_issue
        if not candidates:
            return
        if not queue and next_issue < now:
            next_issue = now
        for line in candidates:
            if line in queued or line in in_flight or l2_find(line) is not None:
                continue
            if len(queue) >= queue_capacity:
                break  # hardware queue is full; newest candidates drop
            queue.append(line)
            queued.add(line)

    prefetcher.on_trace(trace, line_shift)
    for event in trace.events:
        now = event.icount * inv_width + stall
        kind = event.kind

        if kind == MEMORY_ACCESS:
            issue_prefetches(now)
            drain_completions(now)

            line = event.address >> line_shift
            outcome, evicted = hierarchy.demand_access(line)
            result.demand_accesses += 1

            latency = 0.0
            l1_hit = outcome == "l1"
            if not l1_hit:
                result.l1_misses += 1
                if outcome != "memory":  # "l2" or "l2-prefetch"
                    latency = l2_extra
                    if outcome == "l2-prefetch":
                        classes[DemandClass.TIMELY] += 1
                    else:
                        classes[DemandClass.PLAIN_HIT] += 1
                else:  # memory
                    completion = in_flight.pop(line, None)
                    if completion is not None:
                        # Prefetch in flight: wait out the remainder.
                        latency = max(0.0, completion - now)
                        classes[DemandClass.SHORTER_WAITING] += 1
                        caught_in_flight += 1
                    elif line in queued:
                        queued.discard(line)
                        latency = mem_latency
                        classes[DemandClass.NON_TIMELY] += 1
                        result.llc_misses += 1
                        result.demand_bytes_read += line_size
                    else:
                        latency = mem_latency
                        classes[DemandClass.MISSING] += 1
                        result.llc_misses += 1
                        result.demand_bytes_read += line_size

                # MLP interval model: join the open miss window when
                # this miss issues under it, else close it (charging
                # its pending stall) and open a fresh one.
                if (
                    window_start_icount >= 0
                    and event.icount - window_start_icount <= rob
                    and now < window_end
                    and window_count < mshr_limit
                ):
                    window_end = max(window_end, now + latency)
                    window_count += 1
                else:
                    if window_start_icount >= 0:
                        # Progress under the window is capped at the
                        # ROB depth: the core cannot run further
                        # ahead of an outstanding miss than the
                        # instructions that fit behind it.
                        progress = min(
                            event.icount - window_start_icount, rob
                        ) * inv_width
                        pending = (window_end - window_start_time) - progress
                        if pending > 0.0:
                            stall += pending
                        now = event.icount * inv_width + stall
                    window_start_icount = event.icount
                    window_start_time = now
                    window_end = now + latency
                    window_count = 1

                for evicted_line in evicted:
                    prefetcher.on_l1_eviction(evicted_line)

            enqueue_candidates(
                prefetcher.on_access(event.pc, line, event.address, l1_hit),
                now,
            )
            if checking:
                checked_events += 1
                invariants.check_engine_state(
                    event_index=checked_events,
                    icount=event.icount,
                    last_icount=last_icount,
                    queue_length=len(queue),
                    queued=queued,
                    queue_members=set(queue),
                    in_flight=in_flight,
                    fill_heap=fill_heap,
                    next_issue=next_issue,
                    last_next_issue=last_next_issue,
                    window_count=window_count,
                    window_start_icount=window_start_icount,
                    mshr_limit=mshr_limit,
                    queue_capacity=queue_capacity,
                    max_in_flight=max_in_flight,
                )
                last_icount = event.icount
                last_next_issue = next_issue

        elif kind == BLOCK_END:
            issue_prefetches(now)
            drain_completions(now)
            enqueue_candidates(prefetcher.on_block_end(event.block_id), now)
            if checking:
                checked_events += 1
                invariants.check_engine_state(
                    event_index=checked_events,
                    icount=event.icount,
                    last_icount=last_icount,
                    queue_length=len(queue),
                    queued=queued,
                    queue_members=set(queue),
                    in_flight=in_flight,
                    fill_heap=fill_heap,
                    next_issue=next_issue,
                    last_next_issue=last_next_issue,
                    window_count=window_count,
                    window_start_icount=window_start_icount,
                    mshr_limit=mshr_limit,
                    queue_capacity=queue_capacity,
                    max_in_flight=max_in_flight,
                )
                last_icount = event.icount
                last_next_issue = next_issue

    # Close the final miss window before settling the clock.
    if window_start_icount >= 0:
        progress = min(
            trace.instructions - window_start_icount, rob
        ) * inv_width
        pending = (window_end - window_start_time) - progress
        if pending > 0.0:
            stall += pending
    result.cycles = trace.instructions * inv_width + stall
    result.useful_prefetches = (
        hierarchy.stats["useful_prefetch_hits"] + caught_in_flight
    )
    # Wrong = issued but never demanded: evicted unused, resident
    # unused at the end, and still in flight at the end.
    leftover_unused = sum(
        1 for cache_set in hierarchy.l2.sets for _, unused in cache_set if unused
    )
    result.wrong_prefetches = (
        hierarchy.stats["wrong_prefetch_evictions"]
        + leftover_unused
        + len(in_flight)
    )
    return result
