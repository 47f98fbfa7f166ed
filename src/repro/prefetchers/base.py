"""Prefetcher interface.

All prefetchers observe the committed access stream (at line granularity,
annotated with hit/miss outcome) and return *candidate lines* to fetch
into L2.  The simulation engine owns issue bandwidth, duplicate
suppression, and in-flight tracking — prefetchers only predict.

``on_trace`` runs once per run, before the first event.  Then
``on_access(pc, line, address, l1_hit)`` runs per committed access,
with four plain positional arguments; ``on_block_end`` and
``on_l1_eviction`` run per ``BLOCK_END`` and L1 eviction.  Only the
CBWS prefetchers react to block ends, which is precisely the paper's
point: existing prefetchers have no notion of code blocks.  The CBWS
predictor never sees a cache outcome, so the CBWS prefetchers compute
their predictions for the whole trace in ``on_trace``
(:func:`repro.core.predictor.predict_trace`).  The engine calls a hook
only when the prefetcher's class overrides it (:func:`overrides`), so a
hook left as the base no-op costs nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.stream import Trace


class Prefetcher:
    """Base class; the default implementation predicts nothing."""

    #: Human-readable identifier used in reports and result tables.
    name: str = "none"

    def on_trace(self, trace: Trace, line_shift: int) -> None:
        """A run of ``trace`` at ``2 ** line_shift``-byte lines starts."""

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        """Observe one committed access; return candidate lines.

        ``pc`` is the static instruction, ``line`` the cache line,
        ``address`` the full byte address (word-granularity prefetchers
        such as the classic RPT compute strides on it) and ``l1_hit``
        whether the access hit in L1.
        """
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


def overrides(prefetcher: Prefetcher, hook: str) -> bool:
    """True when ``prefetcher``'s class replaces the base ``hook``."""
    return getattr(type(prefetcher), hook) is not getattr(Prefetcher, hook)
