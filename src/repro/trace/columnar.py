"""Columnar (structure-of-arrays) trace event storage.

The simulation engine touches every event of a multi-million-event
trace; a list of per-event ``__slots__`` objects pays an attribute load
and a pointer chase per field per event.  :class:`EventColumns` stores
the same stream as five parallel ``array`` columns, so the engine's fast
path iterates ``zip(kinds, icounts, payload_a, payload_b, flags)`` over
machine-typed buffers with no object construction per event.

Layout (one row per event, columns by event kind):

=============  ==========  ===========  =========
column         MEMORY      BLOCK_BEGIN  BLOCK_END
=============  ==========  ===========  =========
``kinds``      0           1            2
``icounts``    icount      icount       icount
``pcs``        pc          0            0
``payloads``   address     block_id     block_id
``writes``     is_write    0            0
=============  ==========  ===========  =========

The columns are exact: :meth:`EventColumns.iter_events` (the
compatibility iterator) materializes the original event objects on
demand, and ``trace.columns().iter_events()`` round-trips equal to
``trace.events``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
    TraceEvent,
)


class EventColumns:
    """Parallel typed-array columns of one event stream."""

    __slots__ = ("kinds", "icounts", "pcs", "payloads", "writes")

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        count = len(events)
        self.kinds = array("B", bytes(count))
        self.icounts = array("Q", bytes(8 * count))
        self.pcs = array("Q", bytes(8 * count))
        self.payloads = array("Q", bytes(8 * count))
        self.writes = array("B", bytes(count))
        kinds = self.kinds
        icounts = self.icounts
        pcs = self.pcs
        payloads = self.payloads
        writes = self.writes
        for index, event in enumerate(events):
            kind = event.kind
            kinds[index] = kind
            icounts[index] = event.icount
            if kind == MEMORY_ACCESS:
                pcs[index] = event.pc
                payloads[index] = event.address
                writes[index] = 1 if event.is_write else 0
            else:
                payloads[index] = event.block_id

    def __len__(self) -> int:
        return len(self.kinds)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Compatibility iterator: materialize the original event objects."""
        for kind, icount, pc, payload, write in zip(
            self.kinds, self.icounts, self.pcs, self.payloads, self.writes
        ):
            if kind == MEMORY_ACCESS:
                yield MemoryAccess(icount, pc, payload, bool(write))
            elif kind == BLOCK_BEGIN:
                yield BlockBegin(icount, payload)
            else:
                yield BlockEnd(icount, payload)
