"""Worker-side task execution and pool lifecycle.

Task payloads are small frozen dataclasses (cheap to pickle); the heavy
artifacts move through the filesystem: a trace task *writes* its trace
to a content-addressed file, the dependent simulation tasks *read* it.
Each worker process keeps a tiny LRU of recently read traces so the
sims of one workload that land on the same worker pay the deserialize
cost once.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the two operations the scheduler's fault handling needs: detecting
a broken pool (a worker died mid-task) and force-restarting it (killing
any hung worker) so a poisoned task can never wedge the grid.

Failure injection (:class:`InjectSpec`) exists for the fault-tolerance
tests: a task can be made to raise, crash its worker, or hang for its
first N attempts, with the attempt count persisted in a side file so it
survives worker restarts.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable

from repro.common.errors import ExecError, PermanentError
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.results import SimResult
from repro.trace.io import try_read_trace, write_trace
from repro.trace.stream import Trace
from repro.workloads.base import build_trace, get_workload

#: Per-worker-process cache of deserialized traces, keyed by file path
#: (paths are content-addressed, so a path's contents never change).
#: Bounded two ways: by entry count, and by estimated total bytes so a
#: grid of huge traces cannot OOM a worker that a grid of small traces
#: would sail through.
_TRACE_CACHE: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_CACHE_CAPACITY = 4

#: Total-bytes bound on the per-worker trace cache, tunable via
#: ``$REPRO_TRACE_CACHE_BYTES`` (default 256 MiB).  The most recently
#: used trace is always retained even when it alone exceeds the bound,
#: so repeated sims of one oversized workload still hit.
_TRACE_CACHE_MAX_BYTES = int(
    os.environ.get("REPRO_TRACE_CACHE_BYTES", str(256 * 1024 * 1024))
)

#: Rough per-event heap cost of a deserialized ``TraceEvent`` (a small
#: Python object plus list slot); used to estimate cache footprint
#: without walking every object graph.
_EVENT_NBYTES_ESTIMATE = 160


def trace_nbytes(trace: Trace) -> int:
    """Estimated heap footprint of one in-memory trace."""
    return 1024 + len(trace.events) * _EVENT_NBYTES_ESTIMATE


@dataclass(frozen=True)
class InjectSpec:
    """Test hook: misbehave on the first ``times`` attempts of a task.

    Attributes:
        mode: ``"raise"`` (raise :class:`ExecError`),
            ``"raise-permanent"`` (raise :class:`PermanentError`, which
            skips the retry budget), ``"crash"`` (hard-exit the worker
            process), or ``"hang"`` (sleep past the task timeout).  Only
            the raise modes are honoured on the in-process (jobs=1) path.
        times: number of initial attempts that misbehave.
        hang_seconds: sleep length for ``"hang"`` mode.
    """

    mode: str = "raise"
    times: int = 1_000_000
    hang_seconds: float = 30.0


@dataclass(frozen=True)
class TraceTaskPayload:
    """Build one workload trace and persist it at ``path``."""

    workload: str
    scale: float
    budget_fraction: float
    seed: int
    path: str


@dataclass(frozen=True)
class SimTaskPayload:
    """Simulate one grid cell against the trace at ``trace_path``."""

    workload: str
    prefetcher: str
    config: SimConfig
    trace_path: str
    inject: InjectSpec | None = None
    inject_counter_path: str | None = None


@dataclass
class TraceTaskOutcome:
    workload: str
    path: str
    events: int
    seconds: float
    disk_hit: bool
    rebuilt_corrupt: bool


@dataclass
class SimTaskOutcome:
    result: SimResult
    seconds: float


def build_workload_trace(
    workload: str, scale: float, budget_fraction: float, seed: int
) -> Trace:
    """Build one trace exactly like ``GridRunner.trace`` does."""
    spec = get_workload(workload)
    budget = max(1000, int(spec.default_accesses * scale * budget_fraction))
    return build_trace(spec, scale=scale, max_accesses=budget, seed=seed)


def apply_injection(inject: InjectSpec | None,
                    counter_path: str | None) -> None:
    """Honour a test-injected fault for the current attempt, if any."""
    if inject is None:
        return
    attempts = 0
    counter = Path(counter_path) if counter_path else None
    if counter is not None and counter.exists():
        attempts = int(counter.read_text() or "0")
    if attempts >= inject.times:
        return
    if counter is not None:
        counter.write_text(str(attempts + 1))
    if inject.mode == "crash":
        os._exit(13)
    if inject.mode == "hang":
        time.sleep(inject.hang_seconds)
        return
    if inject.mode == "raise-permanent":
        raise PermanentError(
            f"injected permanent failure (attempt {attempts + 1} of "
            f"{inject.times})"
        )
    raise ExecError(
        f"injected failure (attempt {attempts + 1} of {inject.times})"
    )


def execute_trace_task(payload: TraceTaskPayload) -> TraceTaskOutcome:
    """Worker entry point: materialize one trace file."""
    started = time.perf_counter()
    path = Path(payload.path)
    disk_hit = False
    rebuilt_corrupt = False
    trace: Trace | None = None
    if path.exists():
        trace = try_read_trace(path)
        if trace is None:
            rebuilt_corrupt = True
            path.unlink(missing_ok=True)
        else:
            disk_hit = True
    if trace is None:
        trace = build_workload_trace(
            payload.workload, payload.scale, payload.budget_fraction,
            payload.seed,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trace(trace, path)
    _remember_trace(str(path), trace)
    return TraceTaskOutcome(
        workload=payload.workload,
        path=str(path),
        events=len(trace.events),
        seconds=time.perf_counter() - started,
        disk_hit=disk_hit,
        rebuilt_corrupt=rebuilt_corrupt,
    )


def execute_sim_task(payload: SimTaskPayload) -> SimTaskOutcome:
    """Worker entry point: simulate one grid cell."""
    from repro.harness.registry import make_prefetcher

    apply_injection(payload.inject, payload.inject_counter_path)
    started = time.perf_counter()
    trace = _load_trace(payload.trace_path)
    result = simulate(payload.config, make_prefetcher(payload.prefetcher),
                      trace)
    result.prefetcher = payload.prefetcher
    return SimTaskOutcome(result=result,
                          seconds=time.perf_counter() - started)


def _load_trace(path: str) -> Trace:
    cached = _TRACE_CACHE.get(path)
    if cached is not None:
        _TRACE_CACHE.move_to_end(path)
        return cached
    trace = try_read_trace(path)
    if trace is None:
        raise ExecError(f"trace file {path} is missing or corrupt")
    _remember_trace(path, trace)
    return trace


def _remember_trace(path: str, trace: Trace) -> None:
    _TRACE_CACHE[path] = trace
    _TRACE_CACHE.move_to_end(path)
    while len(_TRACE_CACHE) > _TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)
    total = sum(trace_nbytes(cached) for cached in _TRACE_CACHE.values())
    while total > _TRACE_CACHE_MAX_BYTES and len(_TRACE_CACHE) > 1:
        _, evicted = _TRACE_CACHE.popitem(last=False)
        total -= trace_nbytes(evicted)


class WorkerPool:
    """A restartable process pool.

    The executor is created lazily and can be torn down and rebuilt at
    any point: :meth:`restart` terminates the worker processes (so a
    hung task dies with its worker) and drops every outstanding future —
    the scheduler owns resubmission.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ExecError("worker pool needs at least one job slot")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # fork is markedly cheaper than spawn and the parent is
            # single-threaded at submission time; fall back to the
            # platform default where fork does not exist.
            context = (get_context("fork")
                       if "fork" in get_all_start_methods() else None)
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._executor

    def submit(self, fn: Callable, payload: object) -> Future:
        return self._ensure().submit(fn, payload)

    def restart(self) -> None:
        """Kill the workers and start fresh (outstanding futures die)."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already dead / closed
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    @staticmethod
    def is_pool_failure(error: BaseException) -> bool:
        """True when a future failed because its worker died."""
        return isinstance(error, BrokenProcessPool)
