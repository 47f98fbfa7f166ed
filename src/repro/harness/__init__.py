"""Experiment harness.

Reproduces every table and figure of the paper's evaluation:

=============== ==========================================================
``figure1``     runtime fraction spent in tight loops
``table1``      CBWS construction + differential example (Figs 3/4, Tab I)
``figure5``     skew of the CBWS differential distribution
``table3``      prefetcher storage budgets
``figure12``    last-level-cache MPKI per prefetcher
``figure13``    timeliness / accuracy decomposition
``figure14``    IPC normalized to SMS, both benchmark groups
``figure15``    performance / cost (IPC per byte read)
``ablation_*``  design-choice sweeps (history depth, table size, vector
                capacity)
=============== ==========================================================

All experiments run on :data:`repro.sim.config.REDUCED_CONFIG` by default
and share one trace cache per process.
"""

from repro.harness.registry import (
    PAPER_PREFETCHER_ORDER,
    PREFETCHER_FACTORIES,
    make_prefetcher,
)
from repro.harness.runner import GridRunner
from repro.harness.report import format_table, format_percent_table
from repro.harness.export import write_csv, write_json
from repro.harness import experiments

__all__ = [
    "PREFETCHER_FACTORIES",
    "PAPER_PREFETCHER_ORDER",
    "make_prefetcher",
    "GridRunner",
    "format_table",
    "format_percent_table",
    "write_json",
    "write_csv",
    "experiments",
]
