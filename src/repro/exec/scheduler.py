"""DAG orchestration: cache probe, fan-out, retries, quarantine, degradation.

:func:`execute_grid` drives a :class:`~repro.exec.plan.GridPlan` to
completion:

1. every simulation node is probed against the result cache — hits are
   returned without scheduling any work;
2. the remaining cells group by :class:`~repro.exec.plan.TraceNode`;
   each trace-build task runs first, and its simulation tasks are
   released the moment the trace lands (no barrier between traces);
3. every task attempt runs under bounded retry with exponential backoff
   (and, on the pool path, an optional timeout and worker-crash
   recovery).  Failures are classified
   (:func:`repro.common.errors.classify_error`): permanent failures skip
   the retry budget and quarantine immediately; transient ones retry
   with backoff.  A task that exhausts its retries is *quarantined* —
   recorded in telemetry and skipped — so one poisoned cell can never
   hang or abort the rest of the grid.  Quarantining a trace task
   quarantines its dependent sims.
4. a per-trace **circuit breaker** counts quarantined simulations; at
   ``options.breaker_threshold`` the trace's workload is marked
   DEGRADED and the trace's remaining cells are skipped, letting the
   grid complete with explicit holes instead of burning the retry
   budget cell by cell.  A grid runner plan has one trace per
   workload, so there the breaker is per workload.

Durability: when a :class:`~repro.exec.journal.RunJournal` is supplied,
every outcome (cache hit, completed task, quarantine, degradation) is
appended to it with an fsync, and a prior run's
:class:`~repro.exec.journal.RunReplay` can be *carried* in: completed
cells replay through the cache, and quarantine/degradation decisions are
preserved instead of re-attempted.

``jobs=1`` runs every task in-process (no pool, no pickling), one
trace at a time, so each trace stays in the trace LRU while its sims
run.  Both paths report every outcome through the same policy object
(:class:`_GridState`), so a cell completes, retries and quarantines the
same way whatever the worker count.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.common.errors import (
    ErrorKind,
    ExecError,
    PermanentError,
    classify_error,
)
from repro.exec import faults, traces
from repro.exec import telemetry as telemetry_module
from repro.exec.cache import ResultCache
from repro.exec.journal import RunJournal, RunReplay
from repro.exec.keys import short_digest
from repro.exec.plan import GridPlan, SimNode, TraceNode
from repro.exec.pool import (
    InjectSpec,
    SimTaskPayload,
    WorkerPool,
    execute_sim_task,
    execute_trace_task,
)
from repro.exec.telemetry import ExecTelemetry
from repro.sim.engine import simulate
from repro.sim.results import SimResult

#: Progress callback signature: each delivered cell's node and result.
Progress = Callable[[SimNode, SimResult], None]


@dataclass
class ExecOptions:
    """Execution policy knobs.

    Attributes:
        jobs: worker processes; None means ``os.cpu_count()``; 1 runs
            in-process.
        timeout: per-task wall-clock limit in seconds (pool mode only —
            an in-process task cannot be interrupted).  None disables.
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
    """The per-task outcome policy; the serial and pool paths both call it.

    ``pending`` maps each trace that has not landed yet to its
    cache-missed sims.  The circuit breaker and degradation are scoped
    to a :class:`TraceNode`: in a plan with one trace per workload (a
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
        self.pending: dict[TraceNode, list[SimNode]] = {}
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

    def trace_done(self, node: TraceNode, source: str, seconds: float,
                   attempts: int) -> None:
        """Count one trace task (a memory hit builds none)."""
        if source == traces.BUILT:
            self.telemetry.traces_built += 1
        self.telemetry.task_finished(node.name, "trace", seconds, attempts)
        if self.journal is not None:
            self.journal.task_done(node.name, "trace")

    def sim_done(self, node: SimNode, result: SimResult, seconds: float,
                 attempts: int) -> None:
        """One simulation finished: cache it, then journal it."""
        self.telemetry.sims_run += 1
        self.telemetry.task_finished(node.name, "sim", seconds, attempts)
        if self.cache is not None:
            self.cache.put(node.key, result)
        self.cell_done(node, result, "run")
        faults.check("task-done")

    def attempt_failed(self, node: TraceNode | SimNode, attempts: int,
                       error: Exception | str) -> bool:
        """Decide one failed attempt: True to retry it after a backoff.

        ``attempts`` counts the task's failed attempts, this one
        included.  ``error`` is what the attempt raised, or why its
        worker died or hung (classified as poisoned).  A permanent
        failure or an exhausted retry budget quarantines the task.
        """
        self.telemetry.task_failed_attempt()
        if isinstance(error, str):
            classification, permanent = "poisoned", False
        else:
            kind = classify_error(error)
            classification = kind.value
            permanent = kind is ErrorKind.PERMANENT
        if permanent or attempts > self.options.max_retries:
            if isinstance(node, TraceNode):
                self.trace_failed(node, str(error), attempts, classification)
            else:
                self.quarantine(node, str(error), attempts, classification)
                self.record_sim_failure(node.trace)
            return False
        if isinstance(node, SimNode) and node.trace in self.degraded:
            self.quarantine_degraded(node, attempts)
            return False
        self.telemetry.retries += 1
        time.sleep(self.options.retry_backoff * (2 ** (attempts - 1)))
        return True

    def trace_failed(self, node: TraceNode, reason: str, attempts: int,
                     classification: str) -> None:
        """Quarantine a trace task, degrade its trace, drop its sims."""
        self.quarantine(node, reason, attempts, classification)
        self.degrade(node, f"trace build failed: {reason}", attempts)
        for sim in self.pending.pop(node, []):
            self.telemetry.tasks_queued = max(
                0, self.telemetry.tasks_queued - 1)
            self.quarantine(
                sim, f"trace build for {node.workload} was quarantined", 0,
                "degraded",
            )

    def quarantine(self, node: TraceNode | SimNode, reason: str,
                   attempts: int, classification: str) -> None:
        """Give up on one task; a sim's entry names its result key."""
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

    def skip_degraded(self, node: SimNode, attempts: int = 0) -> bool:
        """Drop a queued sim if its trace is DEGRADED; True if dropped."""
        if node.trace not in self.degraded:
            return False
        self.telemetry.tasks_queued = max(0, self.telemetry.tasks_queued - 1)
        self.quarantine_degraded(node, attempts)
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
        cache: result cache; probed before scheduling, filled after.
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

    misses = 0
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
        state.pending.setdefault(node.trace, []).append(node)
        misses += 1

    if pool is not None and jobs <= 1:
        # A borrowed pool implies the pool path even for one worker —
        # the owner sized it deliberately.
        jobs = max(jobs, pool.jobs)
    try:
        if misses:
            telemetry.task_queued(len(state.pending) + misses)
            if jobs <= 1:
                _run_serial(state, dict(inject or {}))
            else:
                _run_pool(state, dict(inject or {}), jobs, shared_pool=pool)
    finally:
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


def _run_serial(
    state: _GridState,
    inject: dict[tuple[str, str], InjectSpec],
) -> None:
    for trace_node in list(state.pending):
        done = _attempt_serial(state, trace_node, traces.get_trace,
                               trace_node)
        if done is None:
            continue
        (trace, source), seconds, attempts = done
        state.trace_done(trace_node, source, seconds, attempts)
        for node in state.pending.pop(trace_node):
            if state.skip_degraded(node):
                continue
            done = _attempt_serial(state, node, _simulate_serial, node,
                                   trace, inject.get(node.cell), [0])
            if done is not None:
                result, seconds, attempts = done
                state.sim_done(node, result, seconds, attempts)


def _attempt_serial(state: _GridState, node: TraceNode | SimNode,
                    fn: Callable, *args: object) -> tuple | None:
    """Run ``fn(*args)`` in-process under the retry policy.

    Returns (value, seconds, attempts), or None once the task is
    quarantined.
    """
    failures = 0
    while True:
        state.telemetry.task_started()
        started = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as error:
            failures += 1
            if state.attempt_failed(node, failures, error):
                continue
            return None
        return value, time.perf_counter() - started, failures + 1


def _simulate_serial(node: SimNode, trace: object, spec: InjectSpec | None,
                     counter: list[int]) -> SimResult:
    from repro.harness.registry import make_prefetcher

    _apply_serial_injection(spec, counter)
    result = simulate(node.config, make_prefetcher(node.prefetcher), trace)
    result.prefetcher = node.prefetcher
    return result


def _apply_serial_injection(spec: InjectSpec | None, counter: list[int]) -> None:
    """Honour an in-process injection spec.

    Only the raise modes are meaningful in-process: ``crash`` and
    ``hang`` would take the caller down with them, so (as documented on
    :class:`InjectSpec`) they are ignored on the serial path.
    """
    if spec is None or counter[0] >= spec.times:
        return
    counter[0] += 1
    if spec.mode == "raise-permanent":
        raise PermanentError(
            f"injected permanent failure (attempt {counter[0]} of "
            f"{spec.times})"
        )
    if spec.mode == "raise":
        raise ExecError(
            f"injected failure (attempt {counter[0]} of {spec.times})"
        )


# ---------------------------------------------------------------------------
# Pool (jobs>1) path
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _TaskState:
    """Scheduler-side bookkeeping for one DAG task (identity-hashed)."""

    node: TraceNode | SimNode
    payload: object
    fn: Callable
    attempts: int = 0
    future: Future | None = None
    submitted_at: float = 0.0


def _run_pool(
    state: _GridState,
    inject: dict[tuple[str, str], InjectSpec],
    jobs: int,
    shared_pool: WorkerPool | None = None,
) -> None:
    telemetry = state.telemetry
    options = state.options
    # Injected faults count their attempts in side files, so the count
    # survives the worker restarts a crash or hang causes.
    counters = (tempfile.TemporaryDirectory(prefix="repro-inject-")
                if inject else None)

    pool = shared_pool if shared_pool is not None else WorkerPool(jobs)
    active: list[_TaskState] = []
    # After a pool break the culprit is ambiguous (every in-flight future
    # dies), so suspects are re-run one at a time: a repeat crash then
    # charges exactly the task in flight, and healthy tasks are never
    # quarantined for a neighbour's crash.
    probe_queue: list[_TaskState] = []
    _probing = [False]  # True while the single in-flight task is a suspect

    def submit(task: _TaskState) -> None:
        telemetry.task_started()
        try:
            task.future = pool.submit(task.fn, task.payload)
        except Exception:
            # The executor broke between our crash detection and this
            # submission; rebuild it once and retry.
            pool.restart()
            task.future = pool.submit(task.fn, task.payload)
        task.submitted_at = time.monotonic()
        active.append(task)

    def skipped(task: _TaskState) -> bool:
        """Drop a sim whose trace was DEGRADED while it waited."""
        return (isinstance(task.node, SimNode)
                and state.skip_degraded(task.node, task.attempts))

    def dispatch(task: _TaskState) -> None:
        """Run a task: immediately, or queued behind the serial probe."""
        if skipped(task):
            return
        if probe_queue or _probing[0]:
            probe_queue.append(task)
        else:
            submit(task)

    def failed(task: _TaskState, error: Exception | str) -> None:
        task.attempts += 1
        if state.attempt_failed(task.node, task.attempts, error):
            telemetry.tasks_queued += 1
            dispatch(task)

    def make_sim_state(node: SimNode) -> _TaskState:
        spec = inject.get(node.cell)
        counter = None
        if spec is not None:
            counter = str(Path(counters.name) /
                          f"inject-{short_digest(*node.cell)}.count")
        payload = SimTaskPayload(node=node, inject=spec,
                                 inject_counter_path=counter)
        return _TaskState(node, payload, execute_sim_task)

    def complete(task: _TaskState, outcome) -> None:
        if isinstance(task.node, SimNode):
            state.sim_done(task.node, outcome.result, outcome.seconds,
                           task.attempts + 1)
            return
        state.trace_done(task.node, outcome.source, outcome.seconds,
                         task.attempts + 1)
        for node in state.pending.pop(task.node, []):
            dispatch(make_sim_state(node))

    for node in state.pending:
        submit(_TaskState(node, node, execute_trace_task))

    try:
        while active or probe_queue:
            if not active and probe_queue:
                # Pump the serial probe: exactly one suspect in flight,
                # so a pool break now has an unambiguous culprit.
                task = probe_queue.pop(0)
                if skipped(task):
                    continue
                _probing[0] = True
                submit(task)

            futures = {task.future: task for task in active}
            done, _ = wait(list(futures), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                task = futures[future]
                try:
                    error = future.exception()
                except CancelledError:
                    pool_broke = True
                    continue
                if error is not None and WorkerPool.is_pool_failure(error):
                    pool_broke = True
                    continue
                active.remove(task)
                _probing[0] = False
                if error is None:
                    complete(task, future.result())
                else:
                    failed(task, error)

            if pool_broke:
                # A worker died and every outstanding future died with
                # the executor.
                telemetry.worker_crashes += 1
                pool.restart()
                if len(active) == 1:
                    # Exactly one task was in flight (e.g. the serial
                    # probe): attribution is exact, so charge it.
                    task = active.pop()
                    _probing[0] = False
                    failed(task, "worker process died")
                else:
                    # Several tasks were in flight, so the culprit is
                    # unknown; move them all — uncharged — to the probe
                    # queue to be re-run one at a time.
                    for task in active:
                        telemetry.task_failed_attempt()
                        telemetry.tasks_queued += 1
                    probe_queue[:0] = active
                    active.clear()
                continue

            if options.timeout is not None and active:
                now = time.monotonic()
                expired = {
                    task for task in active
                    if now - task.submitted_at > options.timeout
                }
                if expired:
                    # A hung task only dies with its worker, and the
                    # executor cannot survive that — kill the pool and
                    # resubmit everything, charging only the laggards.
                    telemetry.timeouts += len(expired)
                    pool.restart()
                    _probing[0] = False
                    pending = list(active)
                    active.clear()
                    for task in pending:
                        if task in expired:
                            failed(task, f"timed out after "
                                         f"{options.timeout:.1f}s")
                        else:
                            telemetry.task_failed_attempt()
                            telemetry.tasks_queued += 1
                            dispatch(task)
    finally:
        if shared_pool is None:
            pool.shutdown()
        if counters is not None:
            counters.cleanup()


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
