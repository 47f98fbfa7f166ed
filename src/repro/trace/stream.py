"""Trace container and summary statistics.

A :class:`Trace` is a name, an instruction total and the event columns
of :mod:`repro.trace.columnar`; it holds no per-event objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import EventColumns
from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    MemoryAccess,
    TraceEvent,
)


@dataclass(frozen=True)
class TraceStats:
    """Summary counts for a trace.

    Attributes:
        instructions: total committed instructions (including the final
            stretch after the last event).
        memory_accesses: number of committed loads + stores.
        loads: committed loads.
        stores: committed stores.
        blocks: number of completed code block instances (BLOCK_END count).
        block_instructions: instructions committed inside annotated blocks;
            ``block_instructions / instructions`` is the Figure 1 metric.
        distinct_block_ids: number of static code blocks observed.
    """

    instructions: int
    memory_accesses: int
    loads: int
    stores: int
    blocks: int
    block_instructions: int
    distinct_block_ids: int

    @property
    def loop_fraction(self) -> float:
        """Fraction of runtime (instructions) spent inside tight loops."""
        if self.instructions == 0:
            return 0.0
        return self.block_instructions / self.instructions


class Trace:
    """An in-order sequence of trace events plus metadata.

    ``events`` is an :class:`~repro.trace.columnar.EventColumns`: typed
    arrays that also read as a sequence of event objects, materialized
    on access, so a trace keeps no per-event objects.  Validation and
    statistics run on the columns.

    Args:
        name: workload identifier the trace was generated from.
        events: the events in commit order, as columns (kept as given)
            or as event objects (converted to columns once).
        instructions: total committed instruction count.  Must be at least
            the icount of the last event; the tail difference models
            non-memory work after the final access.
    """

    __slots__ = ("name", "events", "instructions")

    def __init__(
        self,
        name: str,
        events: EventColumns | Iterable[TraceEvent],
        instructions: int,
    ) -> None:
        self.name = name
        self.instructions = instructions
        self.events = (events if isinstance(events, EventColumns)
                       else EventColumns.from_events(events))
        if self.events and instructions < self.events.icounts[-1]:
            raise TraceError(
                f"trace '{name}': instruction total {instructions} is below the "
                f"last event icount {self.events.icounts[-1]}"
            )

    def columns(self) -> EventColumns:
        """The event columns (``self.events``), as the simulation engine
        reads them.  They are treated as immutable once a trace is
        constructed."""
        return self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    def memory_events(self) -> Iterator[MemoryAccess]:
        """Iterate only the committed loads and stores."""
        for kind, icount, pc, address, write in zip(*self.events.arrays()):
            if kind == MEMORY_ACCESS:
                yield MemoryAccess(icount, pc, address, bool(write))

    def validate(self) -> None:
        """Check structural invariants, raising :class:`TraceError` on the
        first violation.

        Invariants:
          * icount is monotonically non-decreasing,
          * block markers are balanced and non-nested (tight innermost
            loops never nest),
          * every BLOCK_END matches the id of the open BLOCK_BEGIN.

        A vectorized scan of the columns decides; only a malformed trace
        is walked event by event, to name its first violation.
        """
        columns = self.events
        kinds, icounts, _, payloads, _ = map(np.asarray, columns.arrays())
        marker_kinds, marker_ids = (column[kinds != MEMORY_ACCESS]
                                    for column in (kinds, payloads))
        if (
            not (icounts[1:] < icounts[:-1]).any()
            and len(marker_kinds) % 2 == 0
            and (marker_kinds[0::2] == BLOCK_BEGIN).all()
            and (marker_kinds[1::2] == BLOCK_END).all()
            and (marker_ids[0::2] == marker_ids[1::2]).all()
        ):
            return
        last_icount = 0
        open_block: int | None = None
        for position, (kind, icount, block_id) in enumerate(
            zip(columns.kinds, columns.icounts, columns.payloads)
        ):
            if icount < last_icount:
                raise TraceError(
                    f"trace '{self.name}': icount decreases at event {position} "
                    f"({icount} < {last_icount})"
                )
            last_icount = icount
            if kind == BLOCK_BEGIN:
                if open_block is not None:
                    raise TraceError(
                        f"trace '{self.name}': nested BLOCK_BEGIN at event "
                        f"{position} (block {open_block} still open)"
                    )
                open_block = block_id
            elif kind == BLOCK_END:
                if open_block is None:
                    raise TraceError(
                        f"trace '{self.name}': BLOCK_END without BLOCK_BEGIN "
                        f"at event {position}"
                    )
                if block_id != open_block:
                    raise TraceError(
                        f"trace '{self.name}': BLOCK_END id "
                        f"{block_id} does not match open block "
                        f"{open_block} at event {position}"
                    )
                open_block = None
        if open_block is not None:
            raise TraceError(
                f"trace '{self.name}': block {open_block} never closed"
            )

    def stats(self) -> TraceStats:
        """Summary statistics, computed on the columns.

        A block's instructions run from a BLOCK_BEGIN to the BLOCK_END
        right after it among the markers, so the loop back-edge overhead
        counts as part of the block.
        """
        kinds, icounts, _, payloads, writes = map(
            np.asarray, self.events.arrays())
        memory = kinds == MEMORY_ACCESS
        accesses = int(memory.sum())
        stores = int(writes[memory].sum())
        marker_kinds = kinds[~memory]
        marker_icounts = icounts[~memory].astype(np.int64)
        closes = ((marker_kinds[:-1] == BLOCK_BEGIN)
                  & (marker_kinds[1:] == BLOCK_END))
        return TraceStats(
            instructions=self.instructions,
            memory_accesses=accesses,
            loads=accesses - stores,
            stores=stores,
            blocks=int((kinds == BLOCK_END).sum()),
            block_instructions=int(
                (marker_icounts[1:] - marker_icounts[:-1])[closes].sum()),
            distinct_block_ids=len(np.unique(payloads[kinds == BLOCK_BEGIN])),
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, events={len(self)}, "
            f"instructions={self.instructions})"
        )
