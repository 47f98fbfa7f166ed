"""SPEC ``401.bzip2-source``: block-sorting compression.

bzip2's hot loops "perform large buffer reads from a file (hundreds of
cache lines), whereas the CBWS prefetcher only traces working sets that
consist of up to 16 cache lines" — the one benchmark where the paper
measures the CBWS schemes ~5% *behind* SMS.

The kernel models the main-sort comparison loop: each iteration fetches
two suffix pointers from the (partially sorted) pointer array and reads
a dense 12-line window of the block at each — 24 distinct lines per
iteration.  The windows are spatially dense but their *bases* hop with
the sort order:

* SMS streams each dense window off its trigger access;
* per-PC stride and GHB delta correlation see sort-order jumps between
  iterations and inter-window alternation within one, and stay silent;
* CBWS overflows its 16-line buffer and sees unpredictable window-base
  differentials — in the hybrid it must yield to SMS, reproducing the
  paper's bzip2 deficit.
"""

from __future__ import annotations

from repro.ir.nodes import ArrayDecl, Compute, For, Kernel, Load, Store
from repro.ir.builder import c, v
from repro.workloads.base import WorkloadSpec
from repro.workloads.inits import uniform_ints

#: Distinct lines read per suffix window; two windows per iteration
#: total 24 — beyond the 16-entry CBWS buffer, inside one SMS region.
_WINDOW_LINES = 12
_INTS_PER_LINE = 16  # 4-byte elements


def _sort_order_bases(pointers: int, windows: int):
    """Suffix-pointer bases in partially-sorted order: ascending runs
    with sort-driven jumps."""

    def init(rng):
        import numpy as np
        bases = np.arange(pointers, dtype=np.int64) % windows
        jumps = rng.random(pointers) < 0.4
        bases[jumps] = rng.integers(0, windows, size=int(jumps.sum()))
        return bases * (_WINDOW_LINES * _INTS_PER_LINE)

    return init


def build(scale: float = 1.0) -> Kernel:
    iterations = max(512, int(2_400 * scale))
    pointers = iterations + 1
    windows = max(64, iterations // 4)
    length = windows * _WINDOW_LINES * _INTS_PER_LINE

    i = v("i")
    suffix_a = [
        Load("buf", v("base_a") + c(t * _INTS_PER_LINE))
        for t in range(_WINDOW_LINES)
    ]
    suffix_b = [
        Load("buf", v("base_b") + c(t * _INTS_PER_LINE))
        for t in range(_WINDOW_LINES)
    ]
    # Interleave the two suffix reads, as the byte-wise comparison does.
    compare = [load for pair in zip(suffix_a, suffix_b) for load in pair]
    body = [
        For("i", 0, iterations, [
            Load("ptr", i, dst="base_a"),
            Load("ptr", i + 1, dst="base_b"),
            *compare,
            Compute(30),  # comparison work over the windows
            Store("work", i % c(1024)),
        ]),
    ]
    return Kernel(
        "401.bzip2-source",
        [
            ArrayDecl("buf", length, 4, uniform_ints(length, 0, 256)),
            ArrayDecl("ptr", pointers, 4,
                      _sort_order_bases(pointers, windows)),
            ArrayDecl("work", 1024, 4),
        ],
        body,
    )


SPEC = WorkloadSpec(
    name="401.bzip2-source",
    suite="SPEC2006",
    group="mi",
    description="suffix-pair comparisons: two 12-line windows per iteration",
    build=build,
    default_accesses=60_000,
)
