"""The trace-driven simulation engine.

Drives one prefetcher over one trace on the Table II machine model and
produces a :class:`~repro.sim.results.SimResult`.

Timing model
------------

The core retires ``width`` instructions per cycle; demand misses add
stall cycles on top.  Two mechanisms shape the stalls:

* **Memory-level parallelism** — an interval model: a miss opens a *miss
  window*; later misses that issue while the window is open, within ROB
  reach of its first miss, and within the L1 MSHR budget join the window
  and only extend its end.  The window's stall (its wall-clock span minus
  the instruction progress made under it) is charged when it closes, so
  independent misses overlap instead of serializing.
* **Prefetch timeliness** — prefetch candidates enter a bandwidth-limited
  issue queue (one issue per ``issue_interval`` cycles).  A demand access
  can therefore find its line already in L2 (*timely*), still in flight
  (*shorter-waiting-time*: it stalls only for the remainder), stuck in
  the queue (*non-timely*), or not covered at all (*missing*).

Prefetches fill into L2 only, never L1 (Table II / Section VI).

The fast path and its oracle
----------------------------

:meth:`SimulationEngine.run` is the one production loop.  It iterates
the trace's columnar arrays (:meth:`repro.trace.stream.Trace.columns`),
drives the cache through the hierarchy's ``demand_access_fast`` and
``prefetch_fill_fast`` (integer outcome codes, no per-access result
objects), accumulates counters in local ints, and writes the per-event
steps out once.  The prefetcher's ``on_trace`` runs once, before the
first event; a ``BLOCK_BEGIN`` is then skipped; every other event issues
queued prefetches, drains completed fills, runs its own step (the demand
path and ``on_access`` for a memory access, ``on_block_end`` for a
block end), then enqueues the candidates it got back.  ``on_access``
gets four plain positional arguments, ``(pc, line, address, l1_hit)``.
A hook the prefetcher's class does not override is not called at all;
the issue, drain and eviction steps run the same either way.

The readable specification of the same model is the object-per-event
engine oracle in :mod:`repro.check.reference`, which runs on the
clean-room :class:`repro.check.oracles.HierarchyOracle` and so shares no
cache code with this loop.  The two are bit-identical (every float
operation happens in the same order on the same values), which
``repro check`` and the engine equivalence tests enforce.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter

from repro import obs
from repro.check import invariants
from repro.common.bitops import log2_exact
from repro.prefetchers.base import Prefetcher, overrides
from repro.sim.config import SimConfig
from repro.sim.results import DemandClass, SimResult
from repro.trace.events import BLOCK_BEGIN, MEMORY_ACCESS
from repro.trace.stream import Trace
from repro.memory.hierarchy import (
    FAST_L1_HIT,
    FAST_L2_HIT_PREFETCH,
    FAST_MEMORY,
    CacheHierarchy,
)


class SimulationEngine:
    """One machine: a hierarchy, a prefetch path, and a prefetcher."""

    def __init__(self, config: SimConfig, prefetcher: Prefetcher) -> None:
        self.config = config
        self.prefetcher = prefetcher
        self.hierarchy = CacheHierarchy(config.hierarchy)

    def run(self, trace: Trace) -> SimResult:
        """Simulate ``trace`` and return the measured result (fast path).

        Bit-identical to the engine oracle in :mod:`repro.check.reference`;
        see the module docstring.
        """
        config = self.config
        core = config.core
        prefetch_path = config.prefetch
        hierarchy = self.hierarchy
        prefetcher = self.prefetcher
        line_size = config.hierarchy.line_size
        line_shift = log2_exact(line_size)

        result = SimResult(
            workload=trace.name,
            prefetcher=prefetcher.name,
            instructions=trace.instructions,
            storage_bits=prefetcher.storage_bits(),
        )

        inv_width = 1.0 / core.width
        rob = core.rob_entries
        l2_extra = float(core.l2_latency - core.l1_latency)
        mem_latency = float(core.memory_latency)
        mshr_limit = config.hierarchy.l1.mshrs
        issue_interval = float(prefetch_path.issue_interval)
        queue_capacity = prefetch_path.queue_capacity
        max_in_flight = prefetch_path.max_in_flight

        # Profiling is read once per run: flipping obs mid-run is not
        # observed, which keeps the per-event cost at zero when disabled.
        profiling = obs.enabled()
        run_started = perf_counter() if profiling else 0.0
        # Invariant checking follows the same once-per-run contract; when
        # off, the only cost is one falsy branch per access/block-end.
        checking = invariants.enabled()
        checked_events = 0
        last_icount = 0
        last_next_issue = 0.0

        stall = 0.0
        # Miss-window (interval-model) state: while a window is open, the
        # issue clock excludes its pending stall so overlapping misses can
        # be detected; the pending stall is charged when the window closes.
        window_start_icount = -1  # -1 means no open window
        window_start_time = 0.0
        window_end = 0.0
        window_count = 0
        window_closes = 0

        queue: deque[int] = deque()
        queued: set[int] = set()
        in_flight: dict[int, float] = {}
        fill_heap: list[tuple[float, int]] = []
        next_issue = 0.0
        caught_in_flight = 0

        # Local counters flushed into `result` once at the end; the
        # Figure 13 class counts follow DemandClass member order.
        n_demand = 0
        n_l1_miss = 0
        n_llc_miss = 0
        n_timely = 0
        n_shorter = 0
        n_non_timely = 0
        n_missing = 0
        n_plain_hit = 0
        n_issued = 0
        n_fills = 0
        prefetch_bytes = 0
        demand_bytes = 0

        # Reusable scratch list the fast hierarchy methods append evicted
        # line numbers to; cleared after each consumer.
        evictions: list[int] = []

        heappush = heapq.heappush
        heappop = heapq.heappop
        queue_popleft = queue.popleft
        queue_append = queue.append
        queued_discard = queued.discard
        queued_add = queued.add
        in_flight_pop = in_flight.pop
        demand_access_fast = hierarchy.demand_access_fast
        prefetch_fill_fast = hierarchy.prefetch_fill_fast
        l2_sets = hierarchy.l2._sets
        l2_mask = hierarchy.l2._index_mask
        on_access = prefetcher.on_access
        on_block_end = prefetcher.on_block_end
        on_l1_eviction = prefetcher.on_l1_eviction
        calls_access = overrides(prefetcher, "on_access")
        calls_block_end = overrides(prefetcher, "on_block_end")
        calls_eviction = overrides(prefetcher, "on_l1_eviction")
        candidates = None

        prefetcher.on_trace(trace, line_shift)
        columns = trace.columns()
        for kind, icount, pc, payload in zip(
            columns.kinds, columns.icounts, columns.pcs, columns.payloads
        ):
            if kind == BLOCK_BEGIN:
                continue

            now = icount * inv_width + stall
            # -- issue_prefetches: queued candidates consume bandwidth.
            while queue and next_issue <= now and len(in_flight) < max_in_flight:
                pline = queue_popleft()
                if pline not in queued:
                    continue  # stale: consumed by a demand access already
                queued_discard(pline)
                if pline in l2_sets[pline & l2_mask] or pline in in_flight:
                    continue  # redundant; never reaches the bus
                completion = next_issue + mem_latency
                in_flight[pline] = completion
                heappush(fill_heap, (completion, pline))
                n_issued += 1
                prefetch_bytes += line_size
                next_issue += issue_interval
            # -- drain_completions: install finished prefetches.
            while fill_heap and fill_heap[0][0] <= now:
                completion, pline = heappop(fill_heap)
                if in_flight.get(pline) != completion:
                    continue  # cancelled: the demand stream claimed it
                del in_flight[pline]
                if prefetch_fill_fast(pline, evictions):
                    n_fills += 1
                    if evictions:
                        if calls_eviction:
                            for evicted in evictions:
                                on_l1_eviction(evicted)
                        evictions.clear()

            if kind == MEMORY_ACCESS:
                line = payload >> line_shift
                code = demand_access_fast(line, evictions)
                n_demand += 1

                latency = 0.0
                l1_hit = code == FAST_L1_HIT
                if not l1_hit:
                    n_l1_miss += 1
                    if code < FAST_MEMORY:  # either L2-hit code
                        latency = l2_extra
                        if code == FAST_L2_HIT_PREFETCH:
                            n_timely += 1
                        else:
                            n_plain_hit += 1
                    else:  # memory
                        completion = in_flight_pop(line, None)
                        if completion is not None:
                            # Prefetch in flight: wait out the remainder.
                            latency = max(0.0, completion - now)
                            n_shorter += 1
                            caught_in_flight += 1
                        elif line in queued:
                            queued_discard(line)
                            latency = mem_latency
                            n_non_timely += 1
                            n_llc_miss += 1
                            demand_bytes += line_size
                        else:
                            latency = mem_latency
                            n_missing += 1
                            n_llc_miss += 1
                            demand_bytes += line_size

                    # MLP interval model: join the open miss window when
                    # this miss issues under it, else close it (charging
                    # its pending stall) and open a fresh one.
                    if (
                        window_start_icount >= 0
                        and icount - window_start_icount <= rob
                        and now < window_end
                        and window_count < mshr_limit
                    ):
                        if now + latency > window_end:
                            window_end = now + latency
                        window_count += 1
                    else:
                        if window_start_icount >= 0:
                            window_closes += 1
                            # Progress under the window is capped at the
                            # ROB depth: the core cannot run further
                            # ahead of an outstanding miss than the
                            # instructions that fit behind it.
                            progress = min(
                                icount - window_start_icount, rob
                            ) * inv_width
                            pending = (window_end - window_start_time) - progress
                            if pending > 0.0:
                                stall += pending
                            now = icount * inv_width + stall
                        window_start_icount = icount
                        window_start_time = now
                        window_end = now + latency
                        window_count = 1

                    if evictions:
                        if calls_eviction:
                            for evicted in evictions:
                                on_l1_eviction(evicted)
                        evictions.clear()

                if calls_access:
                    candidates = on_access(pc, line, payload, l1_hit)
            elif calls_block_end:  # BLOCK_END
                candidates = on_block_end(payload)

            # -- enqueue_candidates --------------------------------------
            # (Consumed candidates are cleared, so an event whose hook is
            # skipped never sees the previous event's list.)
            if candidates:
                if not queue and next_issue < now:
                    next_issue = now
                for cand in candidates:
                    if (
                        cand in queued
                        or cand in in_flight
                        or cand in l2_sets[cand & l2_mask]
                    ):
                        continue
                    if len(queue) >= queue_capacity:
                        break  # hardware queue full; newest drop
                    queue_append(cand)
                    queued_add(cand)
                candidates = None
                if profiling:
                    obs.observe("sim.prefetch_queue.occupancy", len(queue))
            if checking:
                checked_events += 1
                invariants.check_engine_state(
                    event_index=checked_events,
                    icount=icount,
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
                last_icount = icount
                last_next_issue = next_issue

        # Close the final miss window before settling the clock.
        if window_start_icount >= 0:
            window_closes += 1
            progress = min(
                trace.instructions - window_start_icount, rob
            ) * inv_width
            pending = (window_end - window_start_time) - progress
            if pending > 0.0:
                stall += pending

        result.demand_accesses = n_demand
        result.l1_misses = n_l1_miss
        result.llc_misses = n_llc_miss
        result.prefetches_issued = n_issued
        result.prefetch_fills = n_fills
        result.prefetch_bytes_read = prefetch_bytes
        result.demand_bytes_read = demand_bytes
        classes = result.classes
        classes[DemandClass.TIMELY] = n_timely
        classes[DemandClass.SHORTER_WAITING] = n_shorter
        classes[DemandClass.NON_TIMELY] = n_non_timely
        classes[DemandClass.MISSING] = n_missing
        classes[DemandClass.PLAIN_HIT] = n_plain_hit

        result.cycles = trace.instructions * inv_width + stall
        result.useful_prefetches = (
            hierarchy.stats.useful_prefetch_hits + caught_in_flight
        )
        # Wrong = issued but never demanded: evicted unused, resident
        # unused at the end, and still in flight at the end.
        leftover_unused = sum(
            1
            for resident in hierarchy.l2.resident_lines()
            if hierarchy.l2.is_unused_prefetch(resident)
        )
        result.wrong_prefetches = (
            hierarchy.stats.wrong_prefetch_evictions
            + leftover_unused
            + len(in_flight)
        )
        if profiling:
            obs.record_seconds("sim.run", perf_counter() - run_started)
            obs.add("sim.events", len(trace))
            obs.add("sim.demand_accesses", result.demand_accesses)
            obs.add("sim.window_closes", window_closes)
            obs.add("sim.prefetches_issued", result.prefetches_issued)
        return result


def simulate(config: SimConfig, prefetcher: Prefetcher, trace: Trace) -> SimResult:
    """Run one (prefetcher, trace) simulation on a fresh machine."""
    return SimulationEngine(config, prefetcher).run(trace)
