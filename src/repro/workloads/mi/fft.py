"""SPLASH ``fft-simlarge``: bit-reversal reordering plus butterfly passes.

Two alternating phases, both tight loops:

* **bit-reversal** — ``x[i] <-> x[rev(i)]``: the gathered side jumps all
  over the array, producing a different CBWS differential on virtually
  every iteration;
* **butterflies** — each stage pairs elements ``span`` apart with
  ``span`` doubling per stage, so even the regular phase keeps changing
  its differential.

Together they are exactly the pathology the paper describes: "several
segments in fft ... have a large number of distinct differential
vectors.  As a result, the history table is too small to represent a
meaningful CBWS differential history" — the standalone CBWS prefetcher
is outperformed by SMS (whose region patterns stay dense across phases),
and the CBWS+SMS fall-back recovers the difference.
"""

from __future__ import annotations

from repro.ir.nodes import ArrayDecl, Assign, Compute, For, If, Kernel, Load, Store
from repro.ir.builder import c, v
from repro.workloads.base import WorkloadSpec
from repro.workloads.inits import uniform_ints


def _bit_reversed(log_n: int):
    """Precomputed bit-reversal permutation table."""

    def init(rng):
        import numpy as np
        n = 1 << log_n
        indices = np.arange(n, dtype=np.int64)
        reversed_indices = np.zeros(n, dtype=np.int64)
        for bit in range(log_n):
            reversed_indices |= ((indices >> bit) & 1) << (log_n - 1 - bit)
        return reversed_indices

    return init


def build(scale: float = 1.0) -> Kernel:
    log_n = max(10, int(13 + round(scale) - 1))
    n = 1 << log_n

    s, blk, t, i = v("s"), v("blk"), v("t"), v("i")

    # Phase 1: bit-reversal reorder.  As in the real loop, each pair is
    # swapped once (only when rev(i) > i), so half the iterations touch
    # only the permutation table — divergent working sets on top of the
    # scattered gathers.
    reverse = For("i", 0, n, [
        Load("rev", i, dst="j"),
        Load("re", i),
        Compute(1),
        If(v("j").gt(i), [
            Load("re", v("j")),
            Load("im", v("j")),
            Store("im", v("j")),
            Compute(3),
        ]),
    ])

    # Phase 2: butterfly stages; span doubles each stage.
    base = blk * (v("span") * 2) + t
    butterfly = [
        Load("re", base),
        Load("re", base + v("span")),
        Load("im", base),
        Load("im", base + v("span")),
        Load("tw", t),
        Compute(12),  # complex multiply + add/sub
        Store("re", base),
        Store("re", base + v("span")),
        Store("im", base),
        Store("im", base + v("span")),
    ]
    stages = For("s", 0, log_n, [
        Assign("span", c(1) << s),
        Assign("blocks", c(n) // (v("span") * 2)),
        For("blk", 0, v("blocks"), [
            For("t", 0, v("span"), butterfly),
        ]),
    ])
    return Kernel(
        "fft-simlarge",
        [
            ArrayDecl("re", n, 8, uniform_ints(n, -1000, 1000)),
            ArrayDecl("im", n, 8, uniform_ints(n, -1000, 1000)),
            ArrayDecl("tw", n, 8, uniform_ints(n, -1000, 1000)),
            ArrayDecl("rev", n, 4, _bit_reversed(log_n)),
        ],
        [reverse, stages],
    )


SPEC = WorkloadSpec(
    name="fft-simlarge",
    suite="PARSEC-SPLASH",
    group="mi",
    description="bit-reversal gathers + butterflies with doubling strides",
    build=build,
    default_accesses=140_000,
)
