"""Grid runner: (workload x prefetcher) simulations over shared traces.

Traces are expensive to generate (the IR interpreter executes every
iteration over real data) but identical for every prefetcher, so the
runner gets each workload's trace from the trace store
(:mod:`repro.exec.traces`), a bounded process-wide in-memory LRU.

Every grid cell runs through :func:`repro.exec.scheduler.execute_grid`:
the grid becomes one task per trace with bounded retries and
quarantine, plus, given a ``cache_dir``, a content-addressed result
cache and a run journal.  ``jobs=1`` runs it in-process; more jobs fan out to a worker
pool.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Callable, Sequence

from repro.common.errors import ExecError, JournalError
from repro.exec.plan import SimNode, TraceNode
from repro.metrics.aggregate import ResultGrid
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.results import SimResult
from repro.trace.stream import Trace


class GridRunner:
    """Runs simulation grids against one machine configuration.

    Args:
        config: machine model (defaults to the reduced Table II scale).
        scale: workload scale factor passed to every kernel factory.
        budget_fraction: multiplies each workload's default access budget;
            tests use small fractions for fast, structurally identical
            runs.
        seed: workload data seed.
        cache_dir: optional directory for the result cache,
            run journals and execution stats.  Without it a grid run
            writes no file.
        jobs: default worker processes for :meth:`run_grid`; ``1`` (the
            default) runs in-process, ``None`` uses ``os.cpu_count()``.
        result_cache: keep simulation results in the content-addressed
            cache under ``cache_dir/results`` (when ``cache_dir`` is set).
        exec_options: base :class:`repro.exec.ExecOptions` (timeout,
            retry policy, breaker threshold) for grid runs; ``jobs``
            above wins.
        run_id: explicit identifier for the write-ahead run journal
            (default: a fresh timestamped id per grid run).  Journals
            live under ``cache_dir/runs/<run_id>/journal.jsonl`` and are
            only written when a cache directory exists.
        resume: id of a journaled prior run to resume — its completed
            cells replay through the result cache and its quarantine /
            degradation decisions carry forward.  The resumed journal's
            fingerprint must match this runner's grid request.
        strict: raise :class:`ExecError` when any cell is quarantined.
            The default is lenient: the grid completes with explicit
            DEGRADED holes.
    """

    def __init__(
        self,
        config: SimConfig = REDUCED_CONFIG,
        scale: float = 1.0,
        budget_fraction: float = 1.0,
        seed: int = 0,
        cache_dir: str | Path | None = None,
        jobs: int | None = 1,
        result_cache: bool = True,
        exec_options: "object | None" = None,
        run_id: str | None = None,
        resume: str | None = None,
        strict: bool = False,
    ) -> None:
        self.config = config
        self.scale = scale
        self.budget_fraction = budget_fraction
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.exec_options = exec_options
        self.run_id = run_id
        self.resume = resume
        self.strict = strict
        #: id of the most recent journaled grid run (for reporting).
        self.last_run_id: str | None = None
        self._grid_runs = 0
        self._result_cache_root = (
            self.cache_dir / "results"
            if result_cache and self.cache_dir is not None else None
        )
        # Simulations are deterministic, so results are memoized by
        # sim key: experiments sharing a runner reuse each other's
        # cells, whichever spelling of a prefetcher ran first.
        self._results: dict[str, SimResult] = {}

    # -- traces ------------------------------------------------------------

    def trace(self, workload: str) -> Trace:
        """The (cached) annotated trace for one workload."""
        from repro.exec.traces import get_trace

        return get_trace(self._trace_node(workload))[0]

    def _trace_node(self, workload: str) -> TraceNode:
        return TraceNode(workload, self.scale, self.budget_fraction,
                         self.seed)

    def _result(self, node: SimNode) -> SimResult:
        """The memoized result of ``node``, under ``node``'s spelling."""
        result = self._results[node.key]
        if result.prefetcher != node.prefetcher:
            result = dataclasses.replace(result, prefetcher=node.prefetcher)
        return result

    # -- simulation ---------------------------------------------------------

    def run_one(self, workload: str, prefetcher_name: str) -> SimResult:
        """Simulate one grid cell: a one-cell :meth:`run_grid`.

        Raises :class:`ExecError` when the cell is quarantined.
        """
        result = self.run_grid([workload], [prefetcher_name]).get(
            workload, prefetcher_name)
        if result.degraded:
            raise ExecError(
                f"cell {workload}:{prefetcher_name} was quarantined; see "
                "`repro exec-stats` for the quarantine report"
            )
        return result

    def run_grid(
        self,
        workloads: Sequence[str],
        prefetchers: Sequence[str],
        progress: Callable[[str, str], None] | None = None,
        jobs: int | None = None,
    ) -> ResultGrid:
        """Simulate the full (workload x prefetcher) grid.

        Args:
            jobs: worker processes for this run, overriding the runner's
                default; ``1`` runs in-process, ``None`` defers to the
                runner (whose own ``None`` means ``os.cpu_count()``).

        Cells are deterministic, so any ``jobs`` value yields an
        identical grid; parallel runs and cache replays differ only in
        wall time.  Cells sharing a sim key (two spellings of one
        prefetcher geometry) simulate once; each result carries the
        spelling its cell asked for.
        """
        from repro.exec import ExecOptions, GridPlan, ResultCache
        from repro.exec.scheduler import execute_grid, quarantine_report

        jobs = jobs if jobs is not None else self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        cells = [(w, p) for w in workloads for p in prefetchers]
        nodes = [SimNode(self._trace_node(w), p, self.config)
                 for w, p in cells]
        todo: dict[str, SimNode] = {}
        for node in nodes:
            if node.key not in self._results:
                todo.setdefault(node.key, node)
        if todo:
            options = dataclasses.replace(self.exec_options or ExecOptions(),
                                          jobs=jobs)
            cache = (ResultCache(self._result_cache_root)
                     if self._result_cache_root is not None else None)
            journal, carried, run_id = self._open_journal(cells, jobs)
            try:
                executed, telemetry = execute_grid(
                    GridPlan(todo.values()),
                    options=options,
                    cache=cache,
                    progress=(None if progress is None
                              else lambda node, _: progress(*node.cell)),
                    stats_path=(self.cache_dir / "exec-stats.json"
                                if self.cache_dir is not None else None),
                    journal=journal,
                    carried=carried,
                )
                for node, result in executed.items():
                    self._results[node.key] = result
                missing = [n for n in nodes if n.key not in self._results]
                if self.strict and telemetry.quarantined:
                    if journal is not None:
                        journal.run_finished(
                            "failed",
                            cells_done=len(executed),
                            quarantined=len(telemetry.quarantined),
                        )
                    raise ExecError(
                        "grid execution quarantined "
                        f"{len(telemetry.quarantined)} task(s):\n"
                        + quarantine_report(telemetry)
                    )
                if journal is not None:
                    journal.run_finished(
                        "degraded" if missing else "complete",
                        cells_done=len(executed),
                        quarantined=len(telemetry.quarantined),
                    )
            finally:
                if journal is not None:
                    journal.close()
            self.last_run_id = run_id
        return ResultGrid(
            (self._result(node) for node in nodes
             if node.key in self._results),
            degraded=[node.cell for node in nodes
                      if node.key not in self._results],
        )

    def _open_journal(
        self, cells: list[tuple[str, str]], jobs: int
    ) -> tuple["object | None", "object | None", str | None]:
        """(journal, carried replay, run id) for one grid run.

        Journals need a durable home: without a cache directory no
        journal is written and ``resume`` is an error.  The fingerprint
        check makes resuming a journal into a *different* grid request
        fail loudly instead of silently mixing results.
        """
        from repro.exec.journal import (
            RUNS_DIRNAME,
            RunJournal,
            load_run,
            new_run_id,
            run_fingerprint,
        )

        runs_root = (self.cache_dir / RUNS_DIRNAME
                     if self.cache_dir is not None else None)
        fingerprint = run_fingerprint(
            cells, self.scale, self.budget_fraction, self.seed, self.config
        )
        self._grid_runs += 1
        if self.resume is not None and self._grid_runs == 1:
            if runs_root is None:
                raise ExecError(
                    "resuming a run requires a cache directory to hold "
                    "the run journal"
                )
            carried = load_run(runs_root, self.resume)
            if carried.fingerprint is None:
                raise JournalError(
                    f"run {self.resume!r} has no intact run-started "
                    "record (a crash lost or cut its journal); run the "
                    "grid again without --resume, and the cells the "
                    "result cache still holds replay from it"
                )
            if carried.fingerprint != fingerprint:
                raise JournalError(
                    f"run {self.resume!r} was journaled for a different "
                    f"grid (fingerprint {carried.fingerprint} != "
                    f"{fingerprint}); refusing to mix results"
                )
            run_id = carried.run_id or self.resume
            journal = RunJournal.for_run(runs_root, run_id)
            journal.append("run-resumed", run_id=run_id)
            return journal, carried, run_id
        if runs_root is None:
            return None, None, None
        if self.run_id is not None:
            run_id = (self.run_id if self._grid_runs == 1
                      else f"{self.run_id}-{self._grid_runs}")
        else:
            run_id = new_run_id()
        journal = RunJournal.for_run(runs_root, run_id)
        journal.run_started(
            run_id, fingerprint, cells,
            scale=self.scale,
            budget_fraction=self.budget_fraction,
            seed=self.seed,
            jobs=jobs,
        )
        return journal, None, run_id


def clear_trace_cache() -> None:
    """Drop the in-memory trace cache (tests use this for isolation)."""
    from repro.exec import traces

    traces.clear()
