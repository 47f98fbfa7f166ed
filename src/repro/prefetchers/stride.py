"""PC-indexed stride prefetcher (reference prediction table).

Implements the classic RPT of Fu, Patel & Janssens [8] / Chen & Baer: a
fully-associative table keyed by the PC of the memory instruction, each
entry holding the last *byte address* touched, the current stride, and a
two-bit confidence state machine.  Following Table II, the table holds
an "unrealistic" 256 concurrent streams so the stride baseline is as
strong as possible.

Strides are computed at word granularity, as in the original designs.
This matters for the comparison: a unit-stride loop has a 4-8 byte
stride, so ``degree`` strides ahead usually lands in the *same* cache
line and prefetches nothing new — the RPT only shines on large-stride
streams.  That is exactly the behaviour the paper's stride baseline
exhibits (strong on stencil-like column walks, weak on streaming code).

State machine (per the original RPT):

* ``INITIAL`` — first stride observed; record it, no prediction.
* ``TRANSIENT`` — the stride changed; record the new one, no prediction.
* ``STEADY`` — the stride repeated; predict ``degree`` strides ahead.
* ``NO_PRED`` — two consecutive stride changes; stay silent until the
  stride stabilizes again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.constants import LINE_SHIFT
from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import stride_storage

_INITIAL = 0
_STEADY = 1
_TRANSIENT = 2
_NO_PRED = 3


@dataclass(frozen=True)
class StrideConfig:
    """Geometry of the stride prefetcher (Table II values as defaults).

    Attributes:
        table_entries: RPT capacity (fully associative, LRU).
        degree: prefetch distance in strides on a steady prediction.
        pc_bits / stride_bits: field widths for storage accounting.
    """

    table_entries: int = 256
    degree: int = 2
    pc_bits: int = 48
    stride_bits: int = 12

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or self.degree <= 0:
            raise ConfigError("stride: table entries and degree must be positive")


class _RptEntry:
    __slots__ = ("last_address", "stride", "state")

    def __init__(self, last_address: int) -> None:
        self.last_address = last_address
        self.stride = 0
        self.state = _INITIAL


class StridePrefetcher(Prefetcher):
    """Reference prediction table stride prefetcher."""

    name = "stride"

    def __init__(self, config: StrideConfig | None = None) -> None:
        self.config = config or StrideConfig()
        self._table: OrderedDict[int, _RptEntry] = OrderedDict()

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.config.table_entries:
                table.popitem(last=False)
            table[pc] = _RptEntry(address)
            return []
        table.move_to_end(pc)

        new_stride = address - entry.last_address
        entry.last_address = address
        matched = new_stride == entry.stride

        if entry.state == _INITIAL:
            if matched:
                entry.state = _STEADY
            else:
                entry.stride = new_stride
                entry.state = _TRANSIENT
        elif entry.state == _STEADY:
            if not matched:
                entry.state = _INITIAL
        elif entry.state == _TRANSIENT:
            if matched:
                entry.state = _STEADY
            else:
                entry.stride = new_stride
                entry.state = _NO_PRED
        else:  # _NO_PRED
            if matched:
                entry.state = _TRANSIENT
            else:
                entry.stride = new_stride

        if entry.state != _STEADY or entry.stride == 0:
            return []
        # Predict degree strides ahead; only lines that differ from the
        # demand's own line are worth fetching.
        candidates: list[int] = []
        target = address
        for _ in range(self.config.degree):
            target += entry.stride
            target_line = target >> LINE_SHIFT
            if (
                target_line != line
                and target_line >= 0
                and target_line not in candidates
            ):
                candidates.append(target_line)
        return candidates

    def storage_bits(self) -> int:
        return stride_storage(self.config).bits

    # -- inspection ----------------------------------------------------------

    def entry_state(self, pc: int) -> tuple[int, int] | None:
        """(stride, state) of a table entry, for tests."""
        entry = self._table.get(pc)
        if entry is None:
            return None
        return entry.stride, entry.state
