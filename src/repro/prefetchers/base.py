"""Prefetcher interface.

All prefetchers observe the committed access stream (at line granularity,
annotated with hit/miss outcome) and return *candidate lines* to fetch
into L2.  The simulation engine owns issue bandwidth, duplicate
suppression, and in-flight tracking — prefetchers only predict.

Block-marker callbacks (``on_block_begin`` / ``on_block_end``) exist on
the base class so the engine can drive every prefetcher uniformly; only
the CBWS prefetchers react to them, which is precisely the paper's point:
existing prefetchers have no notion of code blocks.
"""

from __future__ import annotations


class DemandInfo:
    """One committed memory access as seen by a prefetcher.

    A ``__slots__`` class rather than a dataclass: the engine constructs
    one per committed access, millions per simulation, and the frozen-
    dataclass ``__init__`` (``object.__setattr__`` per field) dominated
    the profile.  The constructor signature, equality, and attribute set
    are unchanged from the dataclass it replaces.

    Attributes:
        pc: static instruction identifier.
        line: cache line number accessed.
        address: full byte address (word-granularity prefetchers such as
            the classic RPT compute strides on it).
        is_write: True for stores.
        l1_hit: the access hit in L1.
        l2_hit: the access hit in L2 (only meaningful when ``l1_hit`` is
            False).
    """

    __slots__ = ("pc", "line", "address", "is_write", "l1_hit", "l2_hit")

    def __init__(self, pc: int, line: int, address: int, is_write: bool,
                 l1_hit: bool, l2_hit: bool) -> None:
        self.pc = pc
        self.line = line
        self.address = address
        self.is_write = is_write
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit

    def _key(self) -> tuple:
        return (self.pc, self.line, self.address, self.is_write,
                self.l1_hit, self.l2_hit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemandInfo):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"DemandInfo(pc={self.pc}, line={self.line}, "
            f"address={self.address}, is_write={self.is_write}, "
            f"l1_hit={self.l1_hit}, l2_hit={self.l2_hit})"
        )


class Prefetcher:
    """Base class; the default implementation predicts nothing."""

    #: Human-readable identifier used in reports and result tables.
    name: str = "none"

    def on_access(self, info: DemandInfo) -> list[int]:
        """Observe one committed access; return candidate lines."""
        return []

    def on_block_begin(self, block_id: int) -> None:
        """A ``BLOCK_BEGIN(id)`` marker committed."""

    def on_block_end(self, block_id: int) -> list[int]:
        """A ``BLOCK_END(id)`` marker committed; may return candidates."""
        return []

    def on_l1_eviction(self, line: int) -> None:
        """A line left the L1 (capacity eviction or back-invalidation)."""

    def storage_bits(self) -> int:
        """Hardware budget of the configuration (Table III)."""
        return 0

    def reset(self) -> None:
        """Drop all learned state."""
