"""Grid runner: (workload x prefetcher) simulations over shared traces.

Traces are expensive to generate (the IR interpreter executes every
iteration over real data) but identical for every prefetcher, so the
runner gets each workload's trace from the trace store
(:mod:`repro.exec.traces`): a bounded process-wide in-memory LRU, and
trace files under ``cache_dir`` that survive processes.

Grid execution itself delegates to :mod:`repro.exec` whenever
parallelism (``jobs != 1``) or a result cache is configured: the grid
becomes a task DAG on a multiprocessing pool with content-addressed
result caching and fault-tolerant workers.  With ``jobs=1`` and no
result cache the historical in-process loop runs unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence

from repro.common.errors import ExecError
from repro.metrics.aggregate import ResultGrid
from repro.prefetchers.base import Prefetcher
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.engine import simulate
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
        cache_dir: optional directory for on-disk trace caching (also
            the default home of the result cache and execution stats).
        jobs: default worker processes for :meth:`run_grid`; ``1`` (the
            default) runs in-process, ``None`` uses ``os.cpu_count()``.
        result_cache: the content-addressed simulation-result cache.
            ``None`` (default) enables it under ``cache_dir/results``
            when ``cache_dir`` is set; ``False`` disables it; a path
            uses that directory directly.
        exec_options: base :class:`repro.exec.ExecOptions` (timeout,
            retry policy, breaker threshold) for delegated grid runs;
            ``jobs`` above wins.
        run_id: explicit identifier for the write-ahead run journal
            (default: a fresh timestamped id per grid run).  Journals
            live under ``cache_dir/runs/<run_id>/journal.jsonl`` and are
            only written when a cache directory exists.
        resume: id of a journaled prior run to resume — its completed
            cells replay through the result cache and its quarantine /
            degradation decisions carry forward.  The resumed journal's
            fingerprint must match this runner's grid request.
        strict: raise :class:`ExecError` when any cell is quarantined
            (the historical behaviour).  The default is lenient: the
            grid completes with explicit DEGRADED holes.
    """

    def __init__(
        self,
        config: SimConfig = REDUCED_CONFIG,
        scale: float = 1.0,
        budget_fraction: float = 1.0,
        seed: int = 0,
        cache_dir: str | Path | None = None,
        jobs: int | None = 1,
        result_cache: bool | str | Path | None = None,
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
        if result_cache is False:
            self._result_cache_root: Path | None = None
        elif result_cache in (None, True):
            self._result_cache_root = (
                self.cache_dir / "results"
                if self.cache_dir is not None else None
            )
        else:
            self._result_cache_root = Path(result_cache)
        # Simulations are deterministic, so registry-built grid cells are
        # memoized: experiments sharing a runner reuse each other's cells.
        self._results: dict[tuple[str, str], SimResult] = {}

    # -- traces ------------------------------------------------------------

    def trace(self, workload: str) -> Trace:
        """The (cached) annotated trace for one workload."""
        from repro.exec.plan import TraceNode
        from repro.exec.traces import get_trace

        node = TraceNode(workload, self.scale, self.budget_fraction,
                         self.seed)
        return get_trace(node, self.cache_dir)[0]

    # -- simulation ---------------------------------------------------------

    def run_one(
        self,
        workload: str,
        prefetcher_name: str,
        prefetcher: Prefetcher | None = None,
    ) -> SimResult:
        """Simulate one grid cell with a fresh prefetcher instance."""
        from repro.harness.registry import make_prefetcher

        if prefetcher is None:
            key = (workload, prefetcher_name)
            cached = self._results.get(key)
            if cached is not None:
                return cached
            result = simulate(
                self.config, make_prefetcher(prefetcher_name),
                self.trace(workload),
            )
            result.prefetcher = prefetcher_name
            self._results[key] = result
            return result

        result = simulate(self.config, prefetcher, self.trace(workload))
        result.prefetcher = prefetcher_name
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
        wall time.
        """
        effective_jobs = jobs if jobs is not None else self.jobs
        if effective_jobs is None:
            effective_jobs = os.cpu_count() or 1
        if effective_jobs <= 1 and self._result_cache_root is None:
            # The historical in-process loop.
            results: list[SimResult] = []
            for workload in workloads:
                for name in prefetchers:
                    if progress is not None:
                        progress(workload, name)
                    results.append(self.run_one(workload, name))
            return ResultGrid(results)
        return self._run_grid_exec(workloads, prefetchers, effective_jobs,
                                   progress)

    def _run_grid_exec(
        self,
        workloads: Sequence[str],
        prefetchers: Sequence[str],
        jobs: int,
        progress: Callable[[str, str], None] | None,
    ) -> ResultGrid:
        from repro.exec import ExecOptions, GridPlan, ResultCache
        from repro.exec import journal as journal_module
        from repro.exec.scheduler import execute_grid, quarantine_report

        cells = [(w, p) for w in workloads for p in prefetchers]
        todo = [cell for cell in cells if cell not in self._results]
        if todo:
            base = self.exec_options or ExecOptions()
            options = ExecOptions(
                jobs=jobs,
                timeout=base.timeout,
                max_retries=base.max_retries,
                retry_backoff=base.retry_backoff,
                breaker_threshold=base.breaker_threshold,
            )
            plan = GridPlan(todo, self.scale, self.budget_fraction,
                            self.seed, self.config)
            cache = (ResultCache(self._result_cache_root)
                     if self._result_cache_root is not None else None)
            journal, carried, run_id = self._open_journal(cells, jobs)
            try:
                executed, telemetry = execute_grid(
                    plan,
                    options=options,
                    cache=cache,
                    trace_dir=self.cache_dir,
                    progress=progress,
                    stats_path=self._stats_path(),
                    journal=journal,
                    carried=carried,
                )
                self._results.update(executed)
                missing = [c for c in cells if c not in self._results]
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
        missing = [cell for cell in cells if cell not in self._results]
        return ResultGrid(
            (self._results[cell] for cell in cells
             if cell in self._results),
            degraded=missing,
        )

    def _open_journal(
        self, cells: list[tuple[str, str]], jobs: int
    ) -> tuple["object | None", "object | None", str | None]:
        """(journal, carried replay, run id) for one delegated grid run.

        Journals need a durable home: without a cache directory (or a
        result-cache root to sit next to) no journal is written and
        ``resume`` is an error.  The fingerprint check makes resuming a
        journal into a *different* grid request fail loudly instead of
        silently mixing results.
        """
        from repro.exec.journal import (
            RunJournal,
            load_run,
            new_run_id,
            run_fingerprint,
        )

        runs_root = self._runs_root()
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
            if carried.fingerprint != fingerprint:
                from repro.common.errors import JournalError

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

    def _runs_root(self) -> Path | None:
        from repro.exec.journal import RUNS_DIRNAME

        if self.cache_dir is not None:
            return self.cache_dir / RUNS_DIRNAME
        if self._result_cache_root is not None:
            return self._result_cache_root.parent / RUNS_DIRNAME
        return None

    def _stats_path(self) -> Path | None:
        if self.cache_dir is not None:
            return self.cache_dir / "exec-stats.json"
        if self._result_cache_root is not None:
            return self._result_cache_root / "exec-stats.json"
        return None


def run_grid(
    workloads: Sequence[str],
    prefetchers: Sequence[str],
    config: SimConfig = REDUCED_CONFIG,
    scale: float = 1.0,
    budget_fraction: float = 1.0,
    seed: int = 0,
    jobs: int | None = 1,
    cache_dir: str | Path | None = None,
) -> ResultGrid:
    """One-shot convenience wrapper around :class:`GridRunner`."""
    runner = GridRunner(
        config=config,
        scale=scale,
        budget_fraction=budget_fraction,
        seed=seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return runner.run_grid(workloads, prefetchers)


def clear_trace_cache() -> None:
    """Drop the in-memory trace cache (tests use this for isolation)."""
    from repro.exec import traces

    traces.clear()
