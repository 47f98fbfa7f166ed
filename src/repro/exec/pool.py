"""Worker-side task execution and pool lifecycle.

A task (:class:`TraceTask`) is one trace and the simulations that
replay it.  :func:`run_task` does the whole task: it gets the trace
from the trace store (:func:`repro.exec.traces.get_trace`), so the task
builds it at most once, then runs each simulation, and yields one
:class:`Outcome` per node as it lands.  The scheduler iterates
:func:`run_task` in-process on the ``jobs=1`` path, so each cell is
delivered the moment it lands, and submits :func:`run_task_list` to the
pool, so a worker builds each trace of its tasks once and a cell lands
when its task finishes.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the two operations the scheduler's fault handling needs: detecting
a broken pool (a worker died mid-task) and force-restarting it (killing
any hung worker) so a poisoned task can never wedge the grid.

Failure injection (:class:`InjectSpec`) exists for the fault-tolerance
tests: a simulation can be made to raise, crash its worker, or hang for
its first N attempts, with the attempt count persisted in a side file
so it survives worker restarts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.common.errors import ExecError, PermanentError
from repro.exec import traces
from repro.exec.keys import short_digest
from repro.exec.plan import SimNode, TraceNode
from repro.sim.engine import simulate


@dataclass(frozen=True)
class InjectSpec:
    """Test hook: misbehave on the first ``times`` attempts of a cell.

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
class TraceTask:
    """One trace and the simulations that replay it (cheap to pickle).

    ``inject`` maps grid cells to test-injected faults, whose attempts
    are counted in files under ``inject_dir``.
    """

    trace: TraceNode
    sims: tuple[SimNode, ...]
    inject: Mapping[tuple[str, str], InjectSpec] = field(
        default_factory=dict)
    inject_dir: str | None = None


@dataclass
class Outcome:
    """How one node of a task landed.

    ``value`` is the exception the node raised, or else: for the trace,
    its :mod:`repro.exec.traces` source (memory or built); for a
    simulation, its :class:`~repro.sim.results.SimResult`.
    """

    node: TraceNode | SimNode
    value: object
    seconds: float


def apply_injection(spec: InjectSpec | None, counter: Path) -> None:
    """Honour a test-injected fault for the current attempt, if any."""
    if spec is None:
        return
    attempts = int(counter.read_text() or "0") if counter.exists() else 0
    if attempts >= spec.times:
        return
    counter.write_text(str(attempts + 1))
    if spec.mode == "crash":
        os._exit(13)
    if spec.mode == "hang":
        time.sleep(spec.hang_seconds)
        return
    if spec.mode == "raise-permanent":
        raise PermanentError(
            f"injected permanent failure (attempt {attempts + 1} of "
            f"{spec.times})"
        )
    raise ExecError(
        f"injected failure (attempt {attempts + 1} of {spec.times})"
    )


def run_task(task: TraceTask) -> Iterator[Outcome]:
    """Run one task: the trace's outcome first, then each sim's.

    A failed build ends the task after its outcome; a failed simulation
    is that simulation's outcome, and the next one runs.
    """
    from repro.harness.registry import make_prefetcher

    started = time.perf_counter()
    try:
        trace, source = traces.get_trace(task.trace)
    except Exception as error:
        yield Outcome(task.trace, error, time.perf_counter() - started)
        return
    yield Outcome(task.trace, source, time.perf_counter() - started)
    for node in task.sims:
        started = time.perf_counter()
        try:
            if task.inject_dir is not None:
                apply_injection(
                    task.inject.get(node.cell),
                    Path(task.inject_dir)
                    / f"inject-{short_digest(*node.cell)}.count")
            value = simulate(node.config, make_prefetcher(node.prefetcher),
                             trace)
            value.prefetcher = node.prefetcher
        except Exception as error:
            value = error
        yield Outcome(node, value, time.perf_counter() - started)


def run_task_list(task: TraceTask) -> list[Outcome]:
    """Pool entry point: every outcome of :func:`run_task`."""
    return list(run_task(task))


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
