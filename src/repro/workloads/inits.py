"""Array initializers shared by the workload kernels.

Each returns a closure suitable for :class:`repro.ir.nodes.ArrayDecl`'s
``init`` parameter; all draw from the interpreter's seeded generator so
data-dependent kernels are reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

    Initializer = Callable[[np.random.Generator], np.ndarray]


def uniform_ints(length: int, low: int, high: int) -> Initializer:
    """Uniform integers in [low, high)."""

    def init(rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        return rng.integers(low, high, size=length, dtype=np.int64)

    return init


def zipf_ints(length: int, universe: int, exponent: float = 1.2) -> Initializer:
    """Zipf-skewed indices into [0, universe) — hot-spot distributions
    like the pixel values feeding histo's histogram."""

    def init(rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        raw = rng.zipf(exponent, size=length)
        return np.minimum(raw - 1, universe - 1).astype(np.int64)

    return init


def permutation_chain(length: int) -> Initializer:
    """A single random cycle over [0, length): ``chain[i]`` is the next
    node after ``i``, as in mcf's arc traversals.  Following it visits
    every element exactly once before returning to the start."""

    def init(rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        order = rng.permutation(length)
        chain = np.empty(length, dtype=np.int64)
        chain[order[:-1]] = order[1:]
        chain[order[-1]] = order[0]
        return chain

    return init


def strided_then_shuffled(length: int, locality: float) -> Initializer:
    """Indices that are mostly sequential with a ``1 - locality``
    fraction of random jumps — the partially-sorted pointer arrays of
    graph workloads (bfs, canneal)."""

    def init(rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        indices = np.arange(length, dtype=np.int64)
        jumps = rng.random(length) > locality
        indices[jumps] = rng.integers(0, length, size=int(jumps.sum()))
        return indices

    return init
