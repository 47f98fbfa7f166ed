"""Grid orchestration: cache probe, one task per trace, retries, quarantine.

:func:`execute_grid` drives a :class:`~repro.exec.plan.GridPlan` to
completion:

1. every simulation node is probed against the result cache — hits are
   returned without scheduling any work;
2. the remaining cells group by :class:`~repro.exec.plan.TraceNode`
   into one task per trace (:class:`~repro.exec.pool.TraceTask`):
   :func:`~repro.exec.pool.run_task` builds the trace once, runs the
   task's simulations, and reports one outcome per node;
3. every failed outcome runs under bounded retry with exponential
   backoff (and, on the pool path, a deadline and worker-crash
   recovery).  Failures are classified
   (:func:`repro.common.errors.classify_error`): permanent failures skip
   the retry budget and quarantine immediately; transient ones retry
   with backoff, as a task of the same trace holding only the failed
   sims.  A node that exhausts its retries is *quarantined* — recorded
   in telemetry and skipped — so one poisoned cell can never hang or
   abort the rest of the grid.  A quarantined trace build degrades its
   trace and quarantines its task's sims.
4. a per-trace **circuit breaker** counts quarantined simulations; at
   ``options.breaker_threshold`` the trace's workload is marked
   DEGRADED and the trace's remaining cells are skipped, letting the
   grid complete with explicit holes instead of burning the retry
   budget cell by cell.  A grid runner plan has one trace per
   workload, so there the breaker is per workload.

Durability: when a :class:`~repro.exec.journal.RunJournal` is supplied,
every outcome (cache hit, completed simulation, quarantine,
degradation) is appended to it (written and flushed, not fsync'd),
and a prior run's :class:`~repro.exec.journal.RunReplay` can be
*carried* in: completed cells replay through the cache, and
quarantine/degradation decisions are preserved instead of re-attempted.

``jobs=1`` iterates each task in-process (no pool, no pickling), one
trace at a time, and delivers each cell the moment it lands; a retry
runs before the next trace, so its trace is still in the trace LRU.
The pool path submits whole tasks, so there a cell lands when its task
finishes; while there are fewer tasks than workers, the task with the
most sims is split in two.  Both paths feed every outcome to the same
policy object (:class:`_GridState`), so a cell completes, retries and
quarantines the same way whatever the worker count.  Telemetry counts
each simulation as one task.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future, wait
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro import obs
from repro.common.errors import ErrorKind, classify_error
from repro.exec import faults, traces
from repro.exec import telemetry as telemetry_module
from repro.exec.cache import ResultCache
from repro.exec.journal import RunJournal, RunReplay
from repro.exec.plan import GridPlan, SimNode, TraceNode
from repro.exec.pool import (
    InjectSpec,
    Outcome,
    TraceTask,
    WorkerPool,
    run_task,
    run_task_list,
)
from repro.exec.telemetry import ExecTelemetry
from repro.sim.results import SimResult

#: Progress callback signature: each delivered cell's node and result.
Progress = Callable[[SimNode, SimResult], None]


@dataclass
class ExecOptions:
    """Execution policy knobs.

    Attributes:
        jobs: worker processes; None means ``os.cpu_count()``; 1 runs
            in-process.
        timeout: wall-clock limit per simulation in seconds (pool mode
            only — an in-process task cannot be interrupted).  A task's
            deadline scales with its size: ``timeout × (1 + its sim
            count)``, one share for the trace build.  None disables.
        max_retries: failed attempts beyond the first before a task is
            quarantined (so a task runs at most ``1 + max_retries`` times).
            Permanent failures ignore this and quarantine immediately.
        retry_backoff: base sleep before a retry; doubles per attempt.
        breaker_threshold: quarantined simulations after which a
            trace trips its circuit breaker and its workload is marked
            DEGRADED (the trace's remaining cells are skipped).  ``0``
            disables the breaker.
    """

    jobs: int | None = None
    timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 3

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, self.jobs)


class _GridState:
    """The per-outcome policy; the serial and pool paths both call it.

    ``failures`` counts each node's failed attempts.  The circuit
    breaker and degradation are scoped to a :class:`TraceNode`: in a
    plan with one trace per workload (a
    :class:`~repro.harness.runner.GridRunner` grid) that is the
    workload, and in a heterogeneous plan every cell replaying one
    trace shares one breaker.
    """

    def __init__(
        self,
        plan: GridPlan,
        options: ExecOptions,
        telemetry: ExecTelemetry,
        cache: ResultCache | None,
        journal: RunJournal | None,
        carried: RunReplay | None,
        progress: Progress | None,
    ) -> None:
        self.options = options
        self.telemetry = telemetry
        self.cache = cache
        self.journal = journal
        self.progress = progress
        self.results: dict[SimNode, SimResult] = {}
        self.failures: dict[TraceNode | SimNode, int] = {}
        self.breaker: dict[TraceNode, int] = {}
        self.degraded: dict[TraceNode, str] = {}
        if carried is not None:
            for trace in plan.trace_nodes:
                if trace.workload in carried.degraded:
                    self.degraded[trace] = (carried.degraded[trace.workload]
                                            or "carried from prior run")

    def cell_done(self, node: SimNode, result: SimResult,
                  source: str) -> None:
        """Deliver one cell's result (``source``: "cache" or "run")."""
        self.results[node] = result
        if self.journal is not None:
            self.journal.task_done(node.name, "sim", cell=node.cell,
                                   key=node.key, source=source)
        if self.progress is not None:
            self.progress(node, result)

    def sim_done(self, node: SimNode, result: SimResult,
                 seconds: float) -> None:
        """One simulation finished: cache it, then journal it."""
        self.telemetry.sims_run += 1
        self.telemetry.task_finished(node.name, "sim", seconds,
                                     self.failures.get(node, 0) + 1)
        if self.cache is not None:
            self.cache.put(node.key, result)
        self.cell_done(node, result, "run")
        faults.check("task-done")

    def finish_task(self, task: TraceTask,
                    outcomes: Iterable[Outcome]) -> TraceTask | None:
        """Take one attempt's outcomes of ``task`` as they land.

        Returns what to queue again — the whole task when its failed
        build will be retried, else a task of the sims that will be —
        or None.  Sims left without an outcome (the build was
        quarantined, or the breaker tripped mid-task) are quarantined.
        """
        waiting = list(task.sims)
        retry: list[SimNode] = []
        finished = 0
        for outcome in outcomes:
            node, value = outcome.node, outcome.value
            if isinstance(node, TraceNode):
                if not isinstance(value, Exception):
                    if value == traces.BUILT:
                        self.telemetry.traces_built += 1
                    continue
                if self.attempt_failed(node, value):
                    retry = waiting
                else:
                    for sim in waiting:
                        self.quarantine(
                            sim, f"trace build for {sim.workload} was "
                            "quarantined", 0, "degraded")
                waiting = []
                break
            waiting.remove(node)
            if not isinstance(value, Exception):
                self.sim_done(node, value, outcome.seconds)
                finished += 1
            elif self.attempt_failed(node, value):
                retry.append(node)
            if node.trace in self.degraded:
                break
        self.telemetry.task_failed_attempt(len(task.sims) - finished)
        for node in waiting:
            self.quarantine_degraded(node, self.failures.get(node, 0))
        if not retry:
            return None
        self.telemetry.tasks_queued += len(retry)
        return replace(task, sims=tuple(retry))

    def attempt_failed(self, node: TraceNode | SimNode,
                       error: Exception | str) -> bool:
        """Decide one failed attempt of a node: True to retry it after a
        backoff.

        ``error`` is what the attempt raised, or why its worker died or
        hung (classified as poisoned).  A permanent failure or an
        exhausted retry budget quarantines the node, and a quarantined
        build degrades its trace.
        """
        attempts = self.failures[node] = self.failures.get(node, 0) + 1
        if isinstance(node, TraceNode) and node in self.degraded:
            return False  # another task of this trace already gave up
        if isinstance(error, str):
            classification, permanent = "poisoned", False
        else:
            kind = classify_error(error)
            classification = kind.value
            permanent = kind is ErrorKind.PERMANENT
        if permanent or attempts > self.options.max_retries:
            self.quarantine(node, str(error), attempts, classification)
            if isinstance(node, TraceNode):
                self.degrade(node, f"trace build failed: {error}", attempts)
            else:
                self.record_sim_failure(node.trace)
            return False
        if isinstance(node, SimNode) and node.trace in self.degraded:
            self.quarantine_degraded(node, attempts)
            return False
        self.telemetry.retries += 1
        time.sleep(self.options.retry_backoff * (2 ** (attempts - 1)))
        return True

    def quarantine(self, node: TraceNode | SimNode, reason: str,
                   attempts: int, classification: str) -> None:
        """Give up on one node; a sim's entry names its result key."""
        if isinstance(node, TraceNode):
            kind, cell, key = "trace", None, None
        else:
            kind, cell, key = "sim", node.cell, node.key
        self.telemetry.quarantine(node.name, kind, reason, attempts,
                                  classification, key=key)
        if self.journal is not None:
            self.journal.task_quarantined(node.name, kind, reason, attempts,
                                          classification, cell=cell)

    def record_sim_failure(self, trace: TraceNode) -> None:
        """Count one quarantined sim; trip the breaker at the threshold."""
        count = self.breaker.get(trace, 0) + 1
        self.breaker[trace] = count
        threshold = self.options.breaker_threshold
        if threshold > 0 and count >= threshold:
            self.degrade(trace, f"{count} simulation(s) quarantined "
                         f"(breaker threshold {threshold})", count)

    def degrade(self, trace: TraceNode, reason: str, failures: int) -> None:
        if trace in self.degraded:
            return
        self.degraded[trace] = reason
        self.telemetry.degrade(trace.workload, reason, failures)
        if self.journal is not None:
            self.journal.workload_degraded(trace.workload, reason, failures)

    def quarantine_degraded(self, node: SimNode, attempts: int) -> None:
        self.quarantine(
            node,
            f"workload {node.workload} is DEGRADED: "
            f"{self.degraded[node.trace]}",
            attempts, "degraded",
        )

    def skip_degraded(self, task: TraceTask) -> bool:
        """Drop a queued task if its trace is DEGRADED; True if dropped."""
        if task.trace not in self.degraded:
            return False
        self.telemetry.tasks_queued = max(
            0, self.telemetry.tasks_queued - len(task.sims))
        for node in task.sims:
            self.quarantine_degraded(node, self.failures.get(node, 0))
        return True


def execute_grid(
    plan: GridPlan,
    *,
    options: ExecOptions | None = None,
    cache: ResultCache | None = None,
    inject: Mapping[tuple[str, str], InjectSpec] | None = None,
    progress: Progress | None = None,
    stats_path: str | Path | None = None,
    telemetry: ExecTelemetry | None = None,
    journal: RunJournal | None = None,
    carried: RunReplay | None = None,
    pool: WorkerPool | None = None,
) -> tuple[dict[SimNode, SimResult], ExecTelemetry]:
    """Execute a grid plan; returns (results by node, telemetry).

    Quarantined and degraded cells are *absent* from the result mapping
    and listed in ``telemetry.quarantined`` (a sim's entry carries its
    node's ``key``) / ``telemetry.degraded`` — the caller decides
    whether that is fatal.  Every result carries its node's prefetcher
    spelling, also when the cache entry was filled under another one.

    Args:
        cache: result cache; probed before scheduling, filled after,
            and closed on return (it reopens on its next use).
        inject: test-only fault injection per (workload, prefetcher).
        progress: called with each delivered cell's node and result, as
            it lands.
        stats_path: where to persist the telemetry JSON snapshot.
        journal: write-ahead run journal; every outcome is appended.
        carried: a prior run's replayed state (``--resume``): completed
            cells count as resumed when the cache still holds them, and
            quarantine/degradation decisions carry forward.
        pool: an externally owned :class:`WorkerPool` to submit into
            instead of creating (and tearing down) a private one — the
            serve broker batches many small grids through one long-lived
            pool this way.  The caller keeps ownership: the pool is left
            running on return (its worker count also overrides
            ``options.jobs`` on the pool path).
    """
    options = options or ExecOptions()
    jobs = options.effective_jobs()
    if telemetry is None:
        telemetry = ExecTelemetry()
    telemetry.jobs = jobs
    grid_started = time.perf_counter()

    state = _GridState(plan, options, telemetry, cache, journal, carried,
                       progress)
    carried_completed = carried.completed if carried is not None else {}
    carried_quarantined = (carried.quarantined_cells if carried is not None
                           else set())

    pending: dict[TraceNode, list[SimNode]] = {}
    for node in plan.sim_nodes:
        if node.trace in state.degraded:
            state.quarantine(
                node,
                f"workload {node.workload} was DEGRADED in the resumed run: "
                f"{state.degraded[node.trace]}",
                0, "degraded",
            )
            continue
        if node.cell in carried_quarantined:
            state.breaker[node.trace] = state.breaker.get(node.trace, 0) + 1
            state.quarantine(
                node, "quarantined in the resumed run; not re-attempted",
                0, "carried",
            )
            continue
        if cache is not None:
            hit = cache.get(node.key)
            if hit is not None:
                telemetry.cache_hits += 1
                if node.cell in carried_completed:
                    telemetry.resumed_cells += 1
                hit.prefetcher = node.prefetcher
                state.cell_done(node, hit, "cache")
                continue
            telemetry.cache_misses += 1
            if node.cell in carried_completed:
                # The journal says this cell finished, but its cached
                # artifact is gone or failed verification — demote to a
                # rebuild instead of trusting a phantom result.
                telemetry_module.logger.warning(
                    "journal records %s complete but the cache cannot "
                    "replay it; re-executing", node.name,
                )
        pending.setdefault(node.trace, []).append(node)

    if pool is not None and jobs <= 1:
        # A borrowed pool implies the pool path even for one worker —
        # the owner sized it deliberately.
        jobs = max(jobs, pool.jobs)
    try:
        if pending:
            telemetry.task_queued(sum(map(len, pending.values())))
            inject = dict(inject or {})
            if jobs <= 1:
                # A crash or hang would take the caller down with it, so
                # (as documented on InjectSpec) only raise modes run here.
                inject = {cell: spec for cell, spec in inject.items()
                          if spec.mode.startswith("raise")}
            # Injected faults count their attempts in side files, so the
            # count survives the worker restarts a crash or hang causes.
            with (tempfile.TemporaryDirectory(prefix="repro-inject-")
                  if inject else nullcontext()) as inject_dir:
                tasks = [TraceTask(trace, tuple(sims), inject, inject_dir)
                         for trace, sims in pending.items()]
                if jobs <= 1:
                    _run_serial(state, tasks)
                else:
                    _run_pool(state, tasks, jobs, shared_pool=pool)
    finally:
        if cache is not None:
            cache.close()
        telemetry.finish()
        telemetry_module.LAST_RUN = telemetry
        if stats_path is not None:
            telemetry.persist(stats_path)
        if obs.enabled():
            obs.record_seconds("exec.grid",
                               time.perf_counter() - grid_started)
            obs.add("exec.cells", len(plan.sim_nodes))
            obs.add("exec.cache_hits", telemetry.cache_hits)
            obs.add("exec.cache_misses", telemetry.cache_misses)
            obs.add("exec.sims_run", telemetry.sims_run)
            obs.add("exec.traces_built", telemetry.traces_built)
    return state.results, telemetry


# ---------------------------------------------------------------------------
# Serial (jobs=1) path
# ---------------------------------------------------------------------------


def _run_serial(state: _GridState, tasks: list[TraceTask]) -> None:
    queue = deque(tasks)
    while queue:
        task = queue.popleft()
        if state.skip_degraded(task):
            continue
        state.telemetry.task_started(len(task.sims))
        retry = state.finish_task(task, run_task(task))
        if retry is not None:
            queue.appendleft(retry)


# ---------------------------------------------------------------------------
# Pool (jobs>1) path
# ---------------------------------------------------------------------------


def _split(tasks: list[TraceTask], jobs: int) -> list[TraceTask]:
    """Halve the task with the most sims while there are fewer tasks
    than ``jobs`` and some task holds more than one sim."""
    tasks = list(tasks)
    while len(tasks) < jobs:
        index = max(range(len(tasks)), key=lambda i: len(tasks[i].sims))
        task = tasks[index]
        if len(task.sims) < 2:
            break
        half = (len(task.sims) + 1) // 2
        tasks[index:index + 1] = [replace(task, sims=task.sims[:half]),
                                  replace(task, sims=task.sims[half:])]
    return tasks


def _run_pool(
    state: _GridState,
    tasks: list[TraceTask],
    jobs: int,
    shared_pool: WorkerPool | None = None,
) -> None:
    telemetry = state.telemetry
    timeout = state.options.timeout
    pool = shared_pool if shared_pool is not None else WorkerPool(jobs)
    queue = deque(_split(tasks, jobs))
    # After a pool break the culprit is ambiguous (every in-flight future
    # dies), so suspects are re-run one at a time, one sim each: a repeat
    # crash then charges exactly that sim, and healthy sims are never
    # quarantined for a neighbour's crash.
    probe: deque[TraceTask] = deque()
    probing = False  # True while the one task in flight is a suspect
    running: dict[Future, tuple[TraceTask, float]] = {}

    def start(task: TraceTask) -> bool:
        if state.skip_degraded(task):
            return False
        telemetry.task_started(len(task.sims))
        try:
            future = pool.submit(run_task_list, task)
        except Exception:
            # The executor broke between our crash detection and this
            # submission; rebuild it once and retry.
            pool.restart()
            future = pool.submit(run_task_list, task)
        deadline = (time.monotonic() + timeout * (1 + len(task.sims))
                    if timeout is not None else float("inf"))
        running[future] = (task, deadline)
        return True

    def requeue(task: TraceTask, to: deque) -> None:
        """Queue an interrupted task again, uncharged."""
        telemetry.task_failed_attempt(len(task.sims))
        telemetry.tasks_queued += len(task.sims)
        to.append(task)

    def suspect(task: TraceTask) -> None:
        for node in task.sims:
            requeue(replace(task, sims=(node,)), probe)

    def charge(task: TraceTask, reason: str) -> None:
        """A one-sim task's worker died or hung: a failed attempt."""
        telemetry.task_failed_attempt()
        if state.attempt_failed(task.sims[0], reason):
            telemetry.tasks_queued += 1
            queue.append(task)

    try:
        while queue or probe or running:
            if probe or probing:
                if not running and probe:
                    # Pump the serial probe: exactly one suspect in
                    # flight, so a pool break has an unambiguous culprit.
                    probing = start(probe.popleft())
            else:
                while queue and len(running) < jobs:
                    start(queue.popleft())
            if not running:
                continue

            done, _ = wait(list(running), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                try:
                    error = future.exception()
                except CancelledError:
                    pool_broke = True
                    continue
                if error is not None and WorkerPool.is_pool_failure(error):
                    pool_broke = True
                    continue
                task, _ = running.pop(future)
                probing = False
                # run_task reports every Exception as an outcome, so a
                # raising future (say, an unpicklable result) failed the
                # task as a whole: it is charged like a failed build.
                outcomes = (future.result() if error is None
                            else [Outcome(task.trace, error, 0.0)])
                retry = state.finish_task(task, outcomes)
                if retry is not None:
                    queue.append(retry)

            if pool_broke:
                # A worker died and every outstanding future died with
                # the executor.  Only a lone one-sim task is charged:
                # otherwise the culprit is unknown, and every sim goes
                # to the probe, uncharged.
                telemetry.worker_crashes += 1
                pool.restart()
                probing = False
                died = [task for task, _ in running.values()]
                running.clear()
                if len(died) == 1 and len(died[0].sims) == 1:
                    charge(died[0], "worker process died")
                else:
                    for task in died:
                        suspect(task)
                continue

            now = time.monotonic()
            expired = [future for future, (_, deadline) in running.items()
                       if now > deadline]
            if expired:
                # A hung task only dies with its worker, and the
                # executor cannot survive that — kill the pool and
                # resubmit everything, charging only a lone-sim laggard.
                telemetry.timeouts += len(expired)
                pool.restart()
                probing = False
                for future, (task, _) in running.items():
                    if future not in expired:
                        requeue(task, queue)
                    elif len(task.sims) == 1:
                        charge(task, f"timed out after {2 * timeout:.1f}s")
                    else:
                        suspect(task)
                running.clear()
    finally:
        if shared_pool is None:
            pool.shutdown()


def quarantine_report(telemetry: ExecTelemetry) -> str:
    """One-line-per-task description of everything quarantined."""
    lines = [
        f"  {entry['task']} ({entry['kind']}, {entry['attempts']} "
        f"attempt(s)): {entry['reason']}"
        for entry in telemetry.quarantined
    ]
    for entry in telemetry.degraded:
        lines.append(
            f"  workload {entry['workload']} DEGRADED: {entry['reason']}"
        )
    return "\n".join(lines)
