"""Worker-side task execution and pool lifecycle.

Task payloads are small frozen dataclasses (cheap to pickle).  Both task
kinds get their trace from the trace store
(:func:`repro.exec.traces.get_trace`), which lives in each worker's
memory: the trace task builds the trace into its worker's LRU (so a
failed build is scoped to that trace and its dependent sims), and each
simulation task finds it there or, on another worker, builds it again.

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
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable

from repro.common.errors import ExecError, PermanentError
from repro.exec.plan import SimNode, TraceNode
from repro.exec.traces import get_trace
from repro.sim.engine import simulate
from repro.sim.results import SimResult


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
class SimTaskPayload:
    """Simulate one node (and any test-injected fault for it)."""

    node: SimNode
    inject: InjectSpec | None = None
    inject_counter_path: str | None = None


@dataclass
class TraceTaskOutcome:
    source: str  # a repro.exec.traces source: memory or built
    seconds: float


@dataclass
class SimTaskOutcome:
    result: SimResult
    seconds: float


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


def execute_trace_task(node: TraceNode) -> TraceTaskOutcome:
    """Worker entry point: find or build one workload's trace."""
    started = time.perf_counter()
    _, source = get_trace(node)
    return TraceTaskOutcome(source=source,
                            seconds=time.perf_counter() - started)


def execute_sim_task(payload: SimTaskPayload) -> SimTaskOutcome:
    """Worker entry point: simulate one grid cell."""
    from repro.harness.registry import make_prefetcher

    apply_injection(payload.inject, payload.inject_counter_path)
    started = time.perf_counter()
    node = payload.node
    trace, _ = get_trace(node.trace)
    result = simulate(node.config, make_prefetcher(node.prefetcher), trace)
    result.prefetcher = node.prefetcher
    return SimTaskOutcome(result=result,
                          seconds=time.perf_counter() - started)


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
