"""DAG orchestration: cache probe, fan-out, retries, quarantine, degradation.

:func:`execute_grid` drives a :class:`~repro.exec.plan.GridPlan` to
completion:

1. every simulation node is probed against the result cache — hits are
   returned without scheduling any work;
2. the remaining cells group by workload; each workload's trace-build
   task is dispatched to the worker pool, and its simulation tasks are
   released the moment the trace lands (no barrier between workloads);
3. every task attempt is wrapped with an optional timeout, bounded retry
   with exponential backoff, and worker-crash recovery.  Failures are
   classified (:func:`repro.common.errors.classify_error`): permanent
   failures skip the retry budget and quarantine immediately; transient
   ones retry with backoff.  A task that exhausts its retries is
   *quarantined* — recorded in telemetry and skipped — so one poisoned
   cell can never hang or abort the rest of the grid.  Quarantining a
   trace task quarantines its dependent sims.
4. a per-workload **circuit breaker** counts quarantined simulations;
   at ``options.breaker_threshold`` the workload is marked DEGRADED and
   its remaining cells are skipped, letting the grid complete with
   explicit holes instead of burning the retry budget cell by cell.

Durability: when a :class:`~repro.exec.journal.RunJournal` is supplied,
every outcome (cache hit, completed task, quarantine, degradation) is
appended to it with an fsync, and a prior run's
:class:`~repro.exec.journal.RunReplay` can be *carried* in: completed
cells replay through the cache, and quarantine/degradation decisions are
preserved instead of re-attempted.

``jobs=1`` runs everything in-process (no pool, no pickling) through the
same cache/telemetry bookkeeping, so serial runs stay bit-identical to
the historical path while still benefiting from the result cache.
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
from repro.exec.plan import GridPlan, SimNode
from repro.exec.pool import (
    InjectSpec,
    SimTaskPayload,
    TraceTaskPayload,
    WorkerPool,
    execute_sim_task,
    execute_trace_task,
)
from repro.exec.telemetry import ExecTelemetry
from repro.sim.engine import simulate
from repro.sim.results import SimResult

#: Progress callback signature: (workload, prefetcher) per finished cell.
Progress = Callable[[str, str], None]


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
            workload trips its circuit breaker and is marked DEGRADED
            (its remaining cells are skipped).  ``0`` disables the
            breaker.
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
    """Failure-policy bookkeeping shared by the serial and pool paths."""

    def __init__(
        self,
        plan: GridPlan,
        options: ExecOptions,
        telemetry: ExecTelemetry,
        journal: RunJournal | None,
        carried: RunReplay | None,
    ) -> None:
        self.plan = plan
        self.options = options
        self.telemetry = telemetry
        self.journal = journal
        self.breaker: dict[str, int] = {}
        self.degraded: dict[str, str] = {}
        if carried is not None:
            for workload, reason in carried.degraded.items():
                self.degraded[workload] = reason or "carried from prior run"

    def journal_done(self, node: SimNode, source: str) -> None:
        if self.journal is not None:
            self.journal.task_done(
                node.name, "sim", cell=node.cell,
                key=node.key(self.plan.config), source=source,
            )

    def journal_trace_done(self, name: str) -> None:
        if self.journal is not None:
            self.journal.task_done(name, "trace")

    def quarantine(self, name: str, kind: str, reason: str, attempts: int,
                   classification: str,
                   cell: tuple[str, str] | None = None) -> None:
        self.telemetry.quarantine(name, kind, reason, attempts,
                                  classification)
        if self.journal is not None:
            self.journal.task_quarantined(name, kind, reason, attempts,
                                          classification, cell=cell)

    def record_sim_failure(self, workload: str) -> bool:
        """Count one quarantined sim; True if the breaker just tripped."""
        count = self.breaker.get(workload, 0) + 1
        self.breaker[workload] = count
        threshold = self.options.breaker_threshold
        if threshold > 0 and count >= threshold and workload not in self.degraded:
            reason = (f"{count} simulation(s) quarantined "
                      f"(breaker threshold {threshold})")
            self.degrade(workload, reason, count)
            return True
        return False

    def degrade(self, workload: str, reason: str, failures: int) -> None:
        if workload in self.degraded:
            return
        self.degraded[workload] = reason
        self.telemetry.degrade(workload, reason, failures)
        if self.journal is not None:
            self.journal.workload_degraded(workload, reason, failures)

    def skip_degraded(self, node: SimNode) -> None:
        """Drop one pending sim of a degraded workload (no attempts)."""
        self.telemetry.tasks_queued = max(0, self.telemetry.tasks_queued - 1)
        self.quarantine(
            node.name, "sim",
            f"workload {node.workload} is DEGRADED: "
            f"{self.degraded[node.workload]}",
            0, "degraded", cell=node.cell,
        )


def execute_grid(
    plan: GridPlan,
    *,
    options: ExecOptions | None = None,
    cache: ResultCache | None = None,
    trace_dir: str | Path | None = None,
    inject: Mapping[tuple[str, str], InjectSpec] | None = None,
    progress: Progress | None = None,
    stats_path: str | Path | None = None,
    telemetry: ExecTelemetry | None = None,
    journal: RunJournal | None = None,
    carried: RunReplay | None = None,
    pool: WorkerPool | None = None,
) -> tuple[dict[tuple[str, str], SimResult], ExecTelemetry]:
    """Execute a grid plan; returns (results by cell, telemetry).

    Quarantined and degraded cells are *absent* from the result mapping
    and listed in ``telemetry.quarantined`` / ``telemetry.degraded`` —
    the caller decides whether that is fatal.

    Args:
        cache: result cache; probed before scheduling, filled after.
        trace_dir: where traces are persisted and looked up (see
            :mod:`repro.exec.traces`).  When omitted the serial path
            keeps traces in memory only and the pool path uses a private
            temporary directory.
        inject: test-only fault injection per (workload, prefetcher).
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

    state = _GridState(plan, options, telemetry, journal, carried)
    carried_completed = carried.completed if carried is not None else {}
    carried_quarantined = (carried.quarantined_cells if carried is not None
                           else set())

    results: dict[tuple[str, str], SimResult] = {}
    misses: list[SimNode] = []
    for node in plan.sim_nodes:
        if node.workload in state.degraded:
            state.quarantine(
                node.name, "sim",
                f"workload {node.workload} was DEGRADED in the resumed run: "
                f"{state.degraded[node.workload]}",
                0, "degraded", cell=node.cell,
            )
            continue
        if node.cell in carried_quarantined:
            state.breaker[node.workload] = (
                state.breaker.get(node.workload, 0) + 1
            )
            state.quarantine(
                node.name, "sim",
                "quarantined in the resumed run; not re-attempted",
                0, "carried", cell=node.cell,
            )
            continue
        if cache is not None:
            hit = cache.get(node.key(plan.config))
            if hit is not None:
                telemetry.cache_hits += 1
                if node.cell in carried_completed:
                    telemetry.resumed_cells += 1
                results[node.cell] = hit
                state.journal_done(node, source="cache")
                if progress is not None:
                    progress(*node.cell)
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
        misses.append(node)

    if pool is not None and jobs <= 1:
        # A borrowed pool implies the pool path even for one worker —
        # the owner sized it deliberately.
        jobs = max(jobs, pool.jobs)
    try:
        if misses:
            if jobs <= 1:
                _run_serial(plan, misses, results, cache, state,
                            trace_dir, dict(inject or {}), options,
                            progress)
            else:
                _run_pool(plan, misses, results, cache, state,
                          trace_dir, dict(inject or {}), options, progress,
                          jobs, shared_pool=pool)
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
    return results, telemetry


def _group_by_workload(nodes: list[SimNode]) -> dict[str, list[SimNode]]:
    groups: dict[str, list[SimNode]] = {}
    for node in nodes:
        groups.setdefault(node.workload, []).append(node)
    return groups


def _count_trace(telemetry: ExecTelemetry, source: str) -> None:
    """Count where one trace task's trace came from (memory counts none)."""
    if source == traces.DISK:
        telemetry.trace_disk_hits += 1
    elif source != traces.MEMORY:
        telemetry.traces_built += 1
    if source == traces.REBUILT_CORRUPT:
        telemetry.corrupt_traces += 1


# ---------------------------------------------------------------------------
# Serial (jobs=1) path
# ---------------------------------------------------------------------------


def _run_serial(
    plan: GridPlan,
    misses: list[SimNode],
    results: dict[tuple[str, str], SimResult],
    cache: ResultCache | None,
    state: _GridState,
    trace_dir: str | Path | None,
    inject: dict[tuple[str, str], InjectSpec],
    options: ExecOptions,
    progress: Progress | None,
) -> None:
    from repro.harness.registry import make_prefetcher

    telemetry = state.telemetry
    groups = _group_by_workload(misses)
    telemetry.task_queued(len(groups) + len(misses))
    for workload, nodes in groups.items():
        trace_node = plan.trace_nodes[workload]
        telemetry.task_started()
        started = time.perf_counter()
        try:
            trace, source = traces.get_trace(trace_node, trace_dir)
        except Exception as error:
            telemetry.task_failed_attempt()
            kind = classify_error(error)
            state.quarantine(trace_node.name, "trace", str(error), 1,
                             kind.value)
            state.degrade(workload, f"trace build failed: {error}", 1)
            for node in nodes:
                telemetry.tasks_queued = max(0, telemetry.tasks_queued - 1)
                state.quarantine(
                    node.name, "sim",
                    f"trace build for {workload} was quarantined", 0,
                    "degraded", cell=node.cell,
                )
            continue
        _count_trace(telemetry, source)
        telemetry.task_finished(trace_node.name, "trace",
                                time.perf_counter() - started, 1)
        state.journal_trace_done(trace_node.name)

        for node in nodes:
            if node.workload in state.degraded:
                state.skip_degraded(node)
                continue
            spec = inject.get(node.cell)
            counter = [0]
            attempts = 0
            while True:
                telemetry.task_started()
                started = time.perf_counter()
                try:
                    _apply_serial_injection(spec, counter)
                    result = simulate(
                        plan.config, make_prefetcher(node.prefetcher), trace,
                    )
                    result.prefetcher = node.prefetcher
                except Exception as error:
                    telemetry.task_failed_attempt()
                    attempts += 1
                    error_kind = classify_error(error)
                    permanent = error_kind is ErrorKind.PERMANENT
                    if permanent or attempts > options.max_retries:
                        state.quarantine(node.name, "sim", str(error),
                                         attempts, error_kind.value,
                                         cell=node.cell)
                        state.record_sim_failure(node.workload)
                        break
                    telemetry.retries += 1
                    time.sleep(options.retry_backoff * (2 ** (attempts - 1)))
                    continue
                telemetry.sims_run += 1
                telemetry.task_finished(node.name, "sim",
                                        time.perf_counter() - started,
                                        attempts + 1)
                results[node.cell] = result
                if cache is not None:
                    cache.put(node.key(plan.config), result)
                state.journal_done(node, source="run")
                if progress is not None:
                    progress(*node.cell)
                faults.check("task-done")
                break


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

    kind: str  # "trace" | "sim"
    name: str
    workload: str
    cell: tuple[str, str] | None
    payload: object
    fn: Callable
    attempts: int = 0
    future: Future | None = None
    submitted_at: float = 0.0


def _run_pool(
    plan: GridPlan,
    misses: list[SimNode],
    results: dict[tuple[str, str], SimResult],
    cache: ResultCache | None,
    state: _GridState,
    trace_dir: str | Path | None,
    inject: dict[tuple[str, str], InjectSpec],
    options: ExecOptions,
    progress: Progress | None,
    jobs: int,
    shared_pool: WorkerPool | None = None,
) -> None:
    telemetry = state.telemetry
    temporary = (tempfile.TemporaryDirectory(prefix="repro-exec-")
                 if trace_dir is None else None)
    trace_root = Path(temporary.name if temporary else trace_dir)
    trace_root.mkdir(parents=True, exist_ok=True)

    groups = _group_by_workload(misses)
    waiting: dict[str, list[SimNode]] = {w: list(n) for w, n in groups.items()}
    pool = shared_pool if shared_pool is not None else WorkerPool(jobs)
    active: list[_TaskState] = []
    # After a pool break the culprit is ambiguous (every in-flight future
    # dies), so suspects are re-run one at a time: a repeat crash then
    # charges exactly the task in flight, and healthy tasks are never
    # quarantined for a neighbour's crash.
    probe_queue: list[_TaskState] = []
    _probing = [False]  # True while the single in-flight task is a suspect
    sim_keys = {node.cell: node.key(plan.config) for node in misses}

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

    def dispatch(task: _TaskState) -> None:
        """Run a task: immediately, or queued behind the serial probe."""
        if task.kind == "sim" and task.workload in state.degraded:
            telemetry.tasks_queued = max(0, telemetry.tasks_queued - 1)
            state.quarantine(
                task.name, "sim",
                f"workload {task.workload} is DEGRADED: "
                f"{state.degraded[task.workload]}",
                task.attempts, "degraded", cell=task.cell,
            )
            return
        if probe_queue or _probing[0]:
            probe_queue.append(task)
        else:
            submit(task)
            active.append(task)

    def quarantine(task: _TaskState, reason: str,
                   classification: str) -> None:
        state.quarantine(task.name, task.kind, reason, task.attempts,
                         classification, cell=task.cell)
        if task.kind == "trace":
            state.degrade(task.workload, f"trace build failed: {reason}",
                          task.attempts)
            for node in waiting.pop(task.workload, []):
                telemetry.tasks_queued = max(0, telemetry.tasks_queued - 1)
                state.quarantine(
                    node.name, "sim",
                    f"trace build for {task.workload} was quarantined", 0,
                    "degraded", cell=node.cell,
                )
        else:
            if state.record_sim_failure(task.workload):
                _drop_degraded_pending(task.workload)

    def _drop_degraded_pending(workload: str) -> None:
        """Skip every not-yet-running sim of a freshly degraded workload."""
        for node in waiting.pop(workload, []):
            state.skip_degraded(node)
        keep: list[_TaskState] = []
        for queued in probe_queue:
            if queued.kind == "sim" and queued.workload == workload:
                telemetry.tasks_queued = max(0, telemetry.tasks_queued - 1)
                state.quarantine(
                    queued.name, "sim",
                    f"workload {workload} is DEGRADED: "
                    f"{state.degraded[workload]}",
                    queued.attempts, "degraded", cell=queued.cell,
                )
            else:
                keep.append(queued)
        probe_queue[:] = keep

    def make_sim_state(node: SimNode) -> _TaskState:
        spec = inject.get(node.cell)
        counter = None
        if spec is not None:
            counter = str(trace_root /
                          f"inject-{short_digest(*node.cell)}.count")
        payload = SimTaskPayload(
            node=node,
            config=plan.config,
            trace_dir=str(trace_root),
            inject=spec,
            inject_counter_path=counter,
        )
        return _TaskState("sim", node.name, node.workload, node.cell,
                          payload, execute_sim_task)

    def complete(task: _TaskState, outcome) -> None:
        if task.kind == "trace":
            _count_trace(telemetry, outcome.source)
            telemetry.task_finished(task.name, "trace", outcome.seconds,
                                    task.attempts + 1)
            state.journal_trace_done(task.name)
            for node in waiting.pop(task.workload, []):
                dispatch(make_sim_state(node))
        else:
            telemetry.sims_run += 1
            telemetry.task_finished(task.name, "sim", outcome.seconds,
                                    task.attempts + 1)
            result = outcome.result
            results[task.cell] = result
            if cache is not None:
                cache.put(sim_keys[task.cell], result)
            if state.journal is not None:
                state.journal.task_done(task.name, "sim", cell=task.cell,
                                        key=sim_keys[task.cell],
                                        source="run")
            if progress is not None:
                progress(*task.cell)
        faults.check("task-done")

    telemetry.task_queued(len(groups) + len(misses))
    for workload in groups:
        node = plan.trace_nodes[workload]
        payload = TraceTaskPayload(node=node, trace_dir=str(trace_root))
        task = _TaskState("trace", node.name, workload, None, payload,
                          execute_trace_task)
        submit(task)
        active.append(task)

    try:
        while active or probe_queue:
            if not active and probe_queue:
                # Pump the serial probe: exactly one suspect in flight,
                # so a pool break now has an unambiguous culprit.
                task = probe_queue.pop(0)
                _probing[0] = True
                submit(task)
                active.append(task)

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
                if error is None:
                    active.remove(task)
                    _probing[0] = False
                    complete(task, future.result())
                elif WorkerPool.is_pool_failure(error):
                    pool_broke = True
                else:
                    active.remove(task)
                    _probing[0] = False
                    telemetry.task_failed_attempt()
                    task.attempts += 1
                    error_kind = classify_error(error)
                    if (error_kind is ErrorKind.PERMANENT
                            or task.attempts > options.max_retries):
                        quarantine(task, str(error), error_kind.value)
                    elif (task.kind == "sim"
                          and task.workload in state.degraded):
                        state.quarantine(
                            task.name, "sim",
                            f"workload {task.workload} is DEGRADED: "
                            f"{state.degraded[task.workload]}",
                            task.attempts, "degraded", cell=task.cell,
                        )
                    else:
                        telemetry.retries += 1
                        time.sleep(options.retry_backoff
                                   * (2 ** (task.attempts - 1)))
                        telemetry.tasks_queued += 1
                        dispatch(task)

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
                    telemetry.task_failed_attempt()
                    task.attempts += 1
                    if task.attempts > options.max_retries:
                        quarantine(task, "worker process died", "poisoned")
                    else:
                        telemetry.retries += 1
                        time.sleep(options.retry_backoff
                                   * (2 ** (task.attempts - 1)))
                        telemetry.tasks_queued += 1
                        probe_queue.insert(0, task)
                else:
                    # Several tasks were in flight, so the culprit is
                    # unknown; move them all — uncharged — to the probe
                    # queue to be re-run one at a time.
                    for task in active:
                        telemetry.task_failed_attempt()
                        telemetry.tasks_queued += 1
                    probe_queue[:0] = active
                    active = []
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
                    pending = active
                    active = []
                    for task in pending:
                        telemetry.task_failed_attempt()
                        if task in expired:
                            task.attempts += 1
                            if task.attempts > options.max_retries:
                                quarantine(
                                    task,
                                    f"timed out after {options.timeout:.1f}s",
                                    "poisoned",
                                )
                                continue
                            telemetry.retries += 1
                        telemetry.tasks_queued += 1
                        dispatch(task)
    finally:
        if shared_pool is None:
            pool.shutdown()
        if temporary is not None:
            temporary.cleanup()


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
