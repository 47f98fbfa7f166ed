"""The ``fig14-cold`` and ``fig14-warm`` workloads.

Both run the paper's Figure 14 grid (30 workloads x 7 prefetchers)
through :func:`repro.harness.experiments.figure14`, which drives
``GridRunner.run_grid`` with ``jobs=1``, and render the figure.

* cold: every pass starts from an empty cache directory and an empty
  in-memory trace LRU, so each pass builds 30 traces and simulates 210
  cells.
* warm: set-up populates a result cache; every pass replays the grid
  from it with a fresh ``GridRunner``, so no trace is built and no cell
  is simulated.

The run's ``--seed`` picks the workload data seed (``seed % 4``); every
cell's SimResult digest is pinned per data seed and budget in
``pins.json`` and checked on every pass.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from common import (
    SETUP_REPEATS,
    Outcome,
    cell_name,
    fresh_dir,
    import_seconds,
    peak_rss_mib,
    percentile,
    result_digest,
)
from layers import layer_metrics
from tracer import Tracer, assert_pristine

from repro.common.errors import ReproError
from repro.exec import telemetry as exec_telemetry
from repro.harness.experiments import figure14
from repro.harness.registry import PAPER_PREFETCHER_ORDER
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.workloads import ALL_WORKLOADS

#: Access-budget fraction of every cold pass.
COLD_BUDGET = 0.03
#: Budget the warm workload's set-up populates the cache at (replay cost
#: does not depend on it).
WARM_BUDGET = 0.005
#: Number of pinned workload data seeds; ``--seed`` maps onto them.
DATA_SEEDS = 4
#: Pinned digests, per budget and data seed.
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
#: Passes per side of a traced warm run.
TRACED_WARM_PASSES = 10

CELLS = [(w, p) for w in ALL_WORKLOADS for p in PAPER_PREFETCHER_ORDER]


def load_pins(budget: float, data_seed: int,
              path: Path = PINS_PATH) -> dict[str, Any]:
    """The pinned {"events", "digests"} of one budget and data seed."""
    document = json.loads(path.read_text())
    try:
        return document["budgets"][repr(budget)][str(data_seed)]
    except KeyError:
        raise SystemExit(
            f"perfbench: {path.name} has no pins for budget {budget} and "
            f"data seed {data_seed}; regenerate them with perfbench/pin.py"
        ) from None


class _TimedRunner(GridRunner):
    """A GridRunner that records the time to finish each grid cell."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.cell_seconds: list[float] = []
        self._last = 0.0

    def run_grid(self, workloads, prefetchers, progress=None, jobs=None):
        self._last = time.perf_counter()
        return super().run_grid(workloads, prefetchers,
                                progress=self._cell_done, jobs=jobs)

    def _cell_done(self, workload: str, prefetcher: str) -> None:
        now = time.perf_counter()
        self.cell_seconds.append(now - self._last)
        self._last = now


@dataclass
class GridPass:
    wall: float
    text: str
    figure: Any
    cell_seconds: list[float]
    sims_run: int
    cache_hits: int


def grid_pass(cache_dir: Path, budget: float, data_seed: int,
              cold: bool) -> GridPass:
    """Run and render Figure 14 once against ``cache_dir``."""
    if cold:
        clear_trace_cache()
    runner = _TimedRunner(budget_fraction=budget, seed=data_seed,
                          cache_dir=cache_dir, jobs=1)
    started = time.perf_counter()
    figure = figure14(runner)
    text = figure.render()
    wall = time.perf_counter() - started
    stats = exec_telemetry.LAST_RUN
    return GridPass(wall, text, figure, runner.cell_seconds,
                    stats.sims_run, stats.cache_hits)


def check_pass(outcome: Outcome, run: GridPass, pins: dict[str, Any],
               text: str | None) -> None:
    """Count the pass's cells; every wrong or missing one is a failure."""
    digests = pins["digests"]
    outcome.attempted += len(CELLS)
    for workload, prefetcher in CELLS:
        name = cell_name(workload, prefetcher)
        try:
            result = run.figure.grid.get(workload, prefetcher)
        except ReproError as error:  # a missing cell is a failure, not fatal
            outcome.fail(f"{name}: {error}")
            continue
        if result.degraded:
            outcome.fail(f"{name}: degraded")
        elif result_digest(result) != digests.get(name):
            outcome.fail(f"{name}: digest {result_digest(result)} != "
                         f"pinned {digests.get(name)}")
    if text is not None and run.text != text:
        outcome.fail("rendered figure differs from the cold run's")


def simulated_notes(figure: Any) -> list[str]:
    """The simulated design numbers of one grid (model, not hardware)."""
    grid = figure.grid
    ratios = [grid.get(w, "cbws+sms").ipc / grid.get(w, "sms").ipc
              for w in ALL_WORKLOADS]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    lines = [f"simulated  cbws+sms / sms IPC geomean over "
             f"{len(ratios)} workloads: {geomean:.6f}"]
    for prefetcher in PAPER_PREFETCHER_ORDER:
        results = [grid.get(w, prefetcher) for w in ALL_WORKLOADS]
        mpki = sum(r.mpki for r in results) / len(results)
        issued = sum(r.prefetches_issued for r in results)
        useful = sum(r.useful_prefetches for r in results)
        accuracy = useful / issued if issued else 0.0
        lines.append(f"simulated  {prefetcher:<12} mean MPKI {mpki:10.4f}"
                     f"  accuracy {accuracy:.6f} ({useful}/{issued})")
    return lines


def run_cold(seed: int, seconds: float, traced: bool,
             budget: float = COLD_BUDGET,
             pins_path: Path = PINS_PATH) -> Outcome:
    outcome = Outcome()
    data_seed = seed % DATA_SEEDS
    pins = load_pins(budget, data_seed, pins_path)
    outcome.metrics["setup_s"] = statistics.median(
        [import_seconds() for _ in range(SETUP_REPEATS)])
    text = None

    def one_pass() -> GridPass:
        nonlocal text
        cache_dir = fresh_dir("cold")
        try:
            run = grid_pass(cache_dir, budget, data_seed, cold=True)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        check_pass(outcome, run, pins, text)
        text = text or run.text
        return run

    if traced:
        one_pass()  # warm-up, so the untraced side is not the first pass
        last = _traced(outcome, one_pass, passes=1)
    else:
        last = _measure(outcome, one_pass, seconds, pins["events"])
    outcome.notes.extend(simulated_notes(last.figure))
    return outcome


def run_warm(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    data_seed = seed % DATA_SEEDS
    pins = load_pins(WARM_BUDGET, data_seed)

    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        cache_dir = fresh_dir("warm")
        started = time.perf_counter()
        import_seconds()
        populate = grid_pass(cache_dir, WARM_BUDGET, data_seed, cold=True)
        setups.append(time.perf_counter() - started)
        check_pass(outcome, populate, pins, None)
    outcome.metrics["setup_s"] = statistics.median(setups)

    def one_pass() -> GridPass:
        run = grid_pass(cache_dir, WARM_BUDGET, data_seed, cold=False)
        check_pass(outcome, run, pins, populate.text)
        if run.sims_run or run.cache_hits != len(CELLS):
            outcome.fail(f"warm pass simulated {run.sims_run} cell(s) and "
                         f"replayed {run.cache_hits} of {len(CELLS)}")
        return run

    if not traced:
        _measure(outcome, one_pass, seconds, pins["events"])
        return outcome
    _traced(outcome, one_pass, passes=TRACED_WARM_PASSES)
    for name, value in outcome.metrics.items():
        if name.startswith(("sim.", "memory.", "prefetchers.")) and value:
            outcome.fail(f"warm replay reached the simulator: "
                         f"{name} = {value}")
    return outcome


def _measure(outcome: Outcome, one_pass: Callable[[], GridPass],
             seconds: float, events: int) -> GridPass:
    """Untraced passes for ``seconds``; sets the end-to-end metrics."""
    assert_pristine()
    started = time.perf_counter()
    walls: list[float] = []
    cell_seconds: list[float] = []
    # Start another pass only if a typical one still ends in the window.
    while not walls or (time.perf_counter() - started
                        + statistics.median(walls)) <= seconds:
        run = one_pass()
        walls.append(run.wall)
        cell_seconds.extend(run.cell_seconds)
    assert_pristine()
    outcome.metrics.update({
        "wall_s": statistics.median(walls),
        "sim_events_per_s": statistics.median([events / w for w in walls]),
        "cells_per_s": statistics.median([len(CELLS) / w for w in walls]),
        "rtt_p50_s": percentile(cell_seconds, 50),
        "rtt_p90_s": percentile(cell_seconds, 90),
        "peak_rss_mb": peak_rss_mib(),
    })
    outcome.notes.append(
        f"{len(walls)} passes of "
        f"{' '.join(f'{w:.3f}' for w in walls)} s; {len(cell_seconds)} "
        f"cell samples (rtt_* is the time to finish one grid cell)")
    return run


def _traced(outcome: Outcome, one_pass: Callable[[], GridPass],
            passes: int) -> GridPass:
    """``passes`` untraced then ``passes`` traced; sets per-layer metrics."""
    untraced_wall = sum(one_pass().wall for _ in range(passes))
    tracer = Tracer()
    tracer.install()
    try:
        runs = [one_pass() for _ in range(passes)]
    finally:
        tracer.restore()
    metrics, notes, failures = layer_metrics(
        tracer, untraced_wall, sum(run.wall for run in runs))
    outcome.metrics = metrics
    outcome.spans = tracer.spans
    outcome.notes.extend(notes)
    for failure in failures:
        outcome.fail(failure)
    return runs[-1]
