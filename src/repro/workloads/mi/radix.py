"""SPLASH ``radix-simlarge``: radix sort.

Models one rank-and-permute pass: a histogram sweep over the key array,
a (cache-resident) prefix-sum over the 256 buckets, then the permutation
writing each key to its bucket's output cursor.  Keys are partially
sorted — long same-digit runs — so the per-bucket output streams advance
in runs and the permute loop's working set (key line, count line, output
line) evolves by near-constant differentials.  The paper counts radix
among the block-structured benchmarks where CBWS "effectively eliminates
misses".
"""

from __future__ import annotations

from repro.ir.nodes import ArrayDecl, Assign, Compute, For, Kernel, Load, Store
from repro.ir.builder import c, v
from repro.workloads.base import WorkloadSpec

_BUCKETS = 256


def _run_sorted_keys(length: int):
    """Keys whose radix digit changes in long runs (partially sorted)."""

    def init(rng):
        import numpy as np
        run = 512
        digits = np.repeat(
            rng.integers(0, _BUCKETS, size=length // run + 1), run
        )[:length]
        noise = rng.integers(0, 1 << 8, size=length)
        return (digits.astype(np.int64) << 8) | noise

    return init


def build(scale: float = 1.0) -> Kernel:
    # Sized so the key array exceeds the reduced L2 and both the
    # histogram sweep (3 accesses/key) and the permute (5 accesses/key)
    # fit in the default access budget.
    length = max(4096, int(18_000 * scale))

    i, b = v("i"), v("b")
    histogram = For("i", 0, length, [
        Load("keys", i, dst="key"),
        Assign("digit", (v("key") >> 8) & c(_BUCKETS - 1)),
        Load("count", v("digit")),
        Compute(2),
        Store("count", v("digit")),
    ])
    # Prefix sum over the bucket counts; converts counts into cursors
    # (done over real data so the permute below writes real positions).
    prefix = For("b", 1, _BUCKETS, [
        Load("count", b - 1, dst="prev"),
        Load("count", b, dst="cur"),
        Store("count", b, v("prev") + v("cur")),
        Compute(1),
    ])
    # Assign cursors: cursor[b] = count[b-1] (exclusive prefix).
    cursors = For("b", 0, _BUCKETS, [
        Load("count", b, dst="cum"),
        Load("keys", b),  # models reading the per-processor rank arrays
        Store("cursor", b, v("cum")),
        Compute(1),
    ])
    permute = For("i", 0, length, [
        Load("keys", i, dst="key"),
        Assign("digit", (v("key") >> 8) & c(_BUCKETS - 1)),
        Load("cursor", v("digit"), dst="pos"),
        Store("sorted", v("pos") % c(length)),
        Store("cursor", v("digit"), v("pos") + 1),
        Compute(3),
    ])
    return Kernel(
        "radix-simlarge",
        [
            ArrayDecl("keys", length, 8, _run_sorted_keys(length)),
            ArrayDecl("sorted", length, 8),
            ArrayDecl("count", _BUCKETS, 4),
            ArrayDecl("cursor", _BUCKETS, 4),
        ],
        [histogram, prefix, cursors, permute],
    )


SPEC = WorkloadSpec(
    name="radix-simlarge",
    suite="SPLASH",
    group="mi",
    description="radix sort rank+permute with run-sorted keys",
    build=build,
    default_accesses=150_000,
)
