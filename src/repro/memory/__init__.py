"""Cache hierarchy substrate.

Models the memory system of Table II: a 4-way L1 data cache and an
inclusive, 8-way L2, both with 64-byte lines and true-LRU replacement.
Prefetchers fetch into the L2 (Section VI: "the prefetchers were
configured to fetch data to the L2 cache").  :mod:`repro.memory.cache`
holds each level's geometry and state; the replacement policy that
changes that state is written once, in :mod:`repro.memory.hierarchy`.
"""

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig

__all__ = [
    "CacheConfig",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyConfig",
]
