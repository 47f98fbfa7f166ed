"""Geometry and state of one set-associative, true-LRU cache level.

The cache holds *line numbers* (byte address >> line shift), not byte
addresses; address-to-line conversion happens once, in the engine.
Each set is an ``OrderedDict`` keyed by line number whose insertion
order encodes recency (least recent first), so lookup, promotion
(``move_to_end``) and victim selection (``popitem(last=False)``) are all
O(1).  The replacement policy that changes this state lives in one
place, :mod:`repro.memory.hierarchy`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.bitops import is_power_of_two
from repro.common.constants import DEFAULT_LINE_SIZE
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        name: label used in error messages and reports.
        size_bytes: total capacity.
        associativity: ways per set.
        line_size: bytes per line (must match the hierarchy's line size).
        latency: access latency in cycles (used by the timing model).
        mshrs: miss-status holding registers; bounds the number of
            concurrently outstanding misses at this level.
    """

    name: str
    size_bytes: int
    associativity: int
    line_size: int = DEFAULT_LINE_SIZE
    latency: int = 1
    mshrs: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigError(f"cache '{self.name}': size and ways must be positive")
        if self.latency < 1:
            raise ConfigError(
                f"cache '{self.name}': latency must be at least one cycle, "
                f"got {self.latency}"
            )
        if self.mshrs < 1:
            raise ConfigError(
                f"cache '{self.name}': needs at least one MSHR, "
                f"got {self.mshrs}"
            )
        if not is_power_of_two(self.line_size):
            raise ConfigError(f"cache '{self.name}': line size must be a power of two")
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigError(
                f"cache '{self.name}': size {self.size_bytes} is not divisible by "
                f"line_size*ways = {self.line_size * self.associativity}"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"cache '{self.name}': set count {self.num_sets} must be a power "
                "of two for index extraction"
            )

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.associativity


class SetAssociativeCache:
    """The state of one cache level.

    Each resident line carries a single metadata bit besides presence:
    whether it was brought in by a prefetch and not yet referenced by a
    demand access.  The accuracy accounting of Figure 13 is built on that
    bit.  Only :class:`~repro.memory.hierarchy.CacheHierarchy` changes
    this state; the methods here are read-only.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._ways = config.associativity
        self._index_mask = config.num_sets - 1
        # set index -> OrderedDict[line, prefetched_unused flag], LRU first
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU state."""
        return line in self._sets[line & self._index_mask]

    def is_unused_prefetch(self, line: int) -> bool:
        """True if ``line`` is resident and still flagged prefetched-unused."""
        return self._sets[line & self._index_mask].get(line, False)

    def resident_lines(self) -> list[int]:
        """All resident line numbers (testing/inspection helper)."""
        return [line for cache_set in self._sets for line in cache_set]
