"""Prefetcher interface.

All prefetchers observe the committed access stream (at line granularity,
annotated with hit/miss outcome) and return *candidate lines* to fetch
into L2.  The simulation engine owns issue bandwidth, duplicate
suppression, and in-flight tracking — prefetchers only predict.

``on_trace`` runs once per run, before the first event; ``on_access``,
``on_block_end`` and ``on_l1_eviction`` run per access, ``BLOCK_END``
and L1 eviction.  Only the CBWS prefetchers react to block ends, which
is precisely the paper's point: existing prefetchers have no notion of
code blocks.  The CBWS predictor never sees a cache outcome, so the CBWS
prefetchers compute their predictions for the whole trace in
``on_trace`` (:func:`repro.core.predictor.predict_trace`).  The engine
calls a hook only when the prefetcher's class overrides it
(:func:`overrides`), so a hook left as the base no-op costs nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.stream import Trace


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

    def on_trace(self, trace: Trace, line_shift: int) -> None:
        """A run of ``trace`` at ``2 ** line_shift``-byte lines starts."""

    def on_access(self, info: DemandInfo) -> list[int]:
        """Observe one committed access; return candidate lines."""
        return []

    def on_block_begin(self, block_id: int) -> None:
        """Not called by the engines: block state comes from ``on_trace``.

        Kept as a name on the base class because perfbench's tracer
        wraps each of the four classic hook names it finds here.
        """

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


def overrides(prefetcher: Prefetcher, hook: str) -> bool:
    """True when ``prefetcher``'s class replaces the base ``hook``."""
    return getattr(type(prefetcher), hook) is not getattr(Prefetcher, hook)
