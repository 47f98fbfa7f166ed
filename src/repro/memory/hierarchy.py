"""Two-level inclusive cache hierarchy: the one copy of the replacement policy.

Every Figure 13 class rests on this policy:

* demand accesses probe L1 then L2 then memory; fills install in both
  levels at MRU, and a demand hit clears the prefetched-unused flag;
* prefetch fills install in L2 only (Table II / Section VI), at *LRU*,
  flagged unused, so a wrong prefetch is the set's next victim and ages
  out without displacing the hot working set;
* the L2 is inclusive, so an L2 victim back-invalidates the line in L1.

Both kinds of L1 removals (capacity victims and back-invalidations) are
reported so region-based prefetchers (SMS) can close their pattern
generations.  :meth:`CacheHierarchy.demand_access_fast` and
:meth:`CacheHierarchy.prefetch_fill_fast` are the only code that changes
cache state; :class:`repro.check.oracles.HierarchyOracle` restates the
same policy clean-room and is what the engine oracle runs on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.check import invariants
from repro.common.constants import DEFAULT_LINE_SIZE
from repro.common.errors import ConfigError
from repro.memory.cache import CacheConfig, SetAssociativeCache


#: Outcome codes returned by :meth:`CacheHierarchy.demand_access_fast`:
#: where a demand access was satisfied, and whether an L2 hit found an
#: unused prefetch (the engine's hot loop branches on plain ints).
FAST_L1_HIT = 0
FAST_L2_HIT = 1
FAST_L2_HIT_PREFETCH = 2
FAST_MEMORY = 3


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy geometry (defaults follow the reduced scale;
    :data:`repro.sim.config.PAPER_CONFIG` holds the Table II values)."""

    l1: CacheConfig
    l2: CacheConfig
    line_size: int = DEFAULT_LINE_SIZE

    def __post_init__(self) -> None:
        if self.l1.line_size != self.line_size or self.l2.line_size != self.line_size:
            raise ConfigError("all cache levels must share the hierarchy line size")
        if self.l2.size_bytes < self.l1.size_bytes:
            raise ConfigError(
                "inclusive L2 must be at least as large as L1 "
                f"({self.l2.size_bytes} < {self.l1.size_bytes})"
            )


@dataclass
class HierarchyStats:
    """Running counters maintained by the hierarchy."""

    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetch_hits: int = 0
    wrong_prefetch_evictions: int = 0


class CacheHierarchy:
    """L1 + inclusive L2 with prefetch-aware accounting."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.stats = HierarchyStats()
        # Read once at construction (same contract as obs profiling):
        # when off, every fill path pays a single falsy attribute test.
        self._invariant_checking = invariants.enabled()

    def demand_access_fast(self, line: int, evictions: list[int]) -> int:
        """Perform one committed load/store at line granularity.

        Returns a ``FAST_*`` outcome code and appends the line numbers
        removed from L1 to ``evictions``, in order: the back-invalidation
        of an L2 victim, then the L1 victim of the fill.
        """
        stats = self.stats
        stats.accesses += 1
        l1 = self.l1
        l2 = self.l2
        l1_set = l1._sets[line & l1._index_mask]
        l2_set = l2._sets[line & l2._index_mask]
        if line in l1_set:
            l1_set[line] = False
            l1_set.move_to_end(line)
            # An L1 hit also refreshes the line's recency in L2 so the
            # inclusive L2 does not victimize hot lines.
            if line in l2_set:
                l2_set[line] = False
                l2_set.move_to_end(line)
            return FAST_L1_HIT

        stats.l1_misses += 1
        if line in l2_set:
            was_prefetch = l2_set[line]
            if was_prefetch:
                stats.useful_prefetch_hits += 1
            l2_set[line] = False
            l2_set.move_to_end(line)
            code = FAST_L2_HIT_PREFETCH if was_prefetch else FAST_L2_HIT
        else:
            stats.l2_misses += 1
            if len(l2_set) >= l2._ways:
                self._evict_l2(l2_set, evictions)
            l2_set[line] = False
            code = FAST_MEMORY
        if len(l1_set) >= l1._ways:
            evictions.append(l1_set.popitem(last=False)[0])
        l1_set[line] = False
        if self._invariant_checking and code == FAST_MEMORY:
            invariants.check_hierarchy(self)
        return code

    def prefetch_fill_fast(self, line: int, evictions: list[int]) -> bool:
        """Install a completed prefetch into L2.

        Returns False when the line was already resident (a redundant
        prefetch, which changes nothing); otherwise fills L2 at LRU and
        appends any back-invalidated L1 line number to ``evictions``.
        """
        l2 = self.l2
        l2_set = l2._sets[line & l2._index_mask]
        if line in l2_set:
            return False
        self.stats.prefetch_fills += 1
        if len(l2_set) >= l2._ways:
            self._evict_l2(l2_set, evictions)
        l2_set[line] = True
        l2_set.move_to_end(line, last=False)
        if self._invariant_checking:
            invariants.check_hierarchy(self)
        return True

    def _evict_l2(self, l2_set: OrderedDict[int, bool], evictions: list[int]) -> None:
        """Drop the LRU line of a full L2 set and back-invalidate it in L1."""
        victim, unused = l2_set.popitem(last=False)
        if unused:
            self.stats.wrong_prefetch_evictions += 1
        l1 = self.l1
        l1_set = l1._sets[victim & l1._index_mask]
        if victim in l1_set:
            del l1_set[victim]
            evictions.append(victim)
