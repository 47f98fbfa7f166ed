"""Columnar (structure-of-arrays) trace event storage.

:class:`EventColumns` is the one in-memory representation of a trace's
events: five parallel ``array`` columns, 26 bytes per event.  The
engine's fast path iterates ``zip(kinds, icounts, pcs, payloads,
writes)`` over these machine-typed buffers with no object per event.

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

The compiled IR kernel (:mod:`repro.ir.compile`) and the binary decoder
(:mod:`repro.trace.io`) append each event's row to one flat list, and
``EventColumns(flat)`` slices it into the columns, so a built or loaded
trace never makes an event object.  The reference interpreter,
synthetic traces, ingest recovery and the check fuzzer make event
objects; :meth:`EventColumns.from_events` converts them once.

The columns also read as a sequence of :class:`TraceEvent` objects
(``Trace.events``): indexing and iteration materialize each event on
demand and keep none of them.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import eq
from typing import Iterable, Iterator

from repro.common.errors import TraceError
from repro.trace.events import (
    BLOCK_BEGIN,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
    TraceEvent,
)

#: Values per event row in a flat producer list, in column order.
ROW = 5


def event_row(event: TraceEvent) -> tuple[int, int, int, int, int]:
    """One event object as a column row."""
    if event.kind == MEMORY_ACCESS:
        return (MEMORY_ACCESS, event.icount, event.pc,  # type: ignore[attr-defined]
                event.address, 1 if event.is_write else 0)  # type: ignore[attr-defined]
    return (event.kind, event.icount, 0, event.block_id, 0)  # type: ignore[attr-defined]


def _event(kind: int, icount: int, pc: int, payload: int,
           write: int) -> TraceEvent:
    if kind == MEMORY_ACCESS:
        return MemoryAccess(icount, pc, payload, bool(write))
    if kind == BLOCK_BEGIN:
        return BlockBegin(icount, payload)
    return BlockEnd(icount, payload)


class EventColumns(Sequence):
    """Parallel typed-array columns of one event stream.

    Args:
        flat: event rows laid end to end, ``ROW`` values each:
            ``kind, icount, pc, payload, write``.
    """

    __slots__ = ("kinds", "icounts", "pcs", "payloads", "writes")

    def __init__(self, flat: Sequence[int] = ()) -> None:
        try:
            self.kinds = array("B", flat[0::ROW])
            self.icounts = array("Q", flat[1::ROW])
            self.pcs = array("Q", flat[2::ROW])
            self.payloads = array("Q", flat[3::ROW])
            self.writes = array("B", flat[4::ROW])
        except (OverflowError, TypeError) as error:
            raise TraceError(
                f"trace event field is not an unsigned 64-bit integer "
                f"({error})"
            ) from None

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "EventColumns":
        """Columns of a stream of event objects (converted once)."""
        return cls([value for event in events for value in event_row(event)])

    def arrays(self) -> tuple[array, ...]:
        """The five columns, in row order."""
        return (self.kinds, self.icounts, self.pcs, self.payloads,
                self.writes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column buffers."""
        return sum(len(column) * column.itemsize for column in self.arrays())

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            part = EventColumns()
            for name, column in zip(self.__slots__, self.arrays()):
                setattr(part, name, column[index])
            return part
        return _event(*(column[index] for column in self.arrays()))

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_event, *self.arrays())

    #: The event objects, materialized one at a time.
    iter_events = __iter__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventColumns):
            return self.arrays() == other.arrays()
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]
