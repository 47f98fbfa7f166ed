"""Regenerate ``pins.json``: the Figure 14 cell digests the benchmark checks.

Run from the root of a checkout, after a change that is meant to move
simulated results (and only then)::

    python3 perfbench/pin.py

For every budget the fig14 workloads use and every pinned data seed it
runs the grid once, cold, and records each cell's SimResult digest and
the grid's total simulated trace events.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import cell_name, fresh_dir, result_digest, use_program  # noqa: E402


def main() -> int:
    use_program()
    from fig14 import (
        CELLS,
        COLD_BUDGET,
        DATA_SEEDS,
        PINS_PATH,
        WARM_BUDGET,
        grid_pass,
    )

    from repro.harness.registry import PAPER_PREFETCHER_ORDER
    from repro.harness.runner import GridRunner
    from repro.workloads import ALL_WORKLOADS

    budgets = {}
    for budget in (COLD_BUDGET, WARM_BUDGET):
        seeds = {}
        for data_seed in range(DATA_SEEDS):
            cache_dir = fresh_dir("pin")
            try:
                run = grid_pass(cache_dir, budget, data_seed, cold=True)
                runner = GridRunner(budget_fraction=budget, seed=data_seed,
                                    cache_dir=cache_dir, jobs=1)
                events = len(PAPER_PREFETCHER_ORDER) * sum(
                    len(runner.trace(w).events) for w in ALL_WORKLOADS)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            seeds[str(data_seed)] = {
                "events": events,
                "digests": {
                    cell_name(w, p): result_digest(run.figure.grid.get(w, p))
                    for w, p in CELLS
                },
            }
            print(f"budget {budget} data seed {data_seed}: {events} events")
        budgets[repr(budget)] = seeds
    PINS_PATH.write_text(json.dumps({"budgets": budgets}, indent=1,
                                    sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
