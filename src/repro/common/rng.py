"""Deterministic random number generation.

All stochastic pieces of the system (the history table's random eviction
policy, data-dependent workload inputs) draw from seeded generators so
every experiment is exactly reproducible run-to-run.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A thin, seedable wrapper around :class:`random.Random`.

    Wrapping (instead of using module-level ``random``) keeps each
    hardware structure's randomness independent: evicting randomly in the
    CBWS history table does not perturb workload input generation.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(items)

    def index(self, length: int) -> int:
        """Uniform index into a container of ``length`` slots."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        return self._rng.randrange(length)

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy of ``items``."""
        out = list(items)
        self._rng.shuffle(out)
        return out

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent generator, stable for a given salt."""
        return DeterministicRng((self._seed * 1_000_003 + salt) & 0x7FFF_FFFF)

    def stream(self, name: str) -> "DeterministicRng":
        """Derive an independent generator keyed by a string label."""
        return self.fork(zlib.crc32(name.encode("utf-8")))


def named_stream(name: str, seed: int = 0) -> DeterministicRng:
    """Return the seeded stream for a named stochastic site.

    Every random-eviction (or otherwise stochastic) path in the system
    draws from a stream obtained here, keyed by a stable site label such
    as ``"pythia.explore"``.  The function is pure — two calls with
    the same ``(name, seed)`` return generators that produce identical
    sequences, and there is no module-level generator whose state one
    caller could perturb for another.  That purity is what makes
    differential runs (implementation vs oracle) reproducible: both
    sides construct the same stream independently and observe the same
    draws.
    """
    return DeterministicRng(seed).stream(name)
