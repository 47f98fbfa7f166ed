"""Pangloss: a frequency-based Markov chain over in-page deltas.

After Bakhshalipour et al.'s observation that delta *frequencies* beat
delta *recency*, Pangloss (arXiv 1906.00877, DPC3 winner) models the
miss stream as a Markov chain whose states are cache-line deltas within
a page.  Each transition row keeps small saturating frequency counters;
when a counter saturates the whole row is halved (an LFU decay that
ages out stale phases), and prediction walks the chain greedily from
the current delta, issuing only transitions whose counter clears a
confidence fraction of the row total.

The exact structure reproduced here (documented because the clean-room
oracle in :mod:`repro.check.oracles` is transcribed from this spec, not
from this code):

* **Page tracker** — an LRU map ``page -> (last_offset, last_delta)``
  of :attr:`PanglossConfig.page_entries` pages.  Only L1 misses train
  or predict (the Markov model correlates the miss stream, as in the
  classic correlation prefetchers).  A zero delta (same line missed
  twice) is ignored.
* **Transition table** — an LRU map ``prev_delta -> row`` of
  :attr:`PanglossConfig.markov_rows` rows; each row holds up to
  :attr:`PanglossConfig.row_slots` ``next_delta -> count`` slots plus
  the row total.  Training bumps the observed successor.  When a bump
  would push a counter past :attr:`PanglossConfig.counter_max`, every
  counter in the row is halved (floor) first and zeroed slots are
  dropped — the LFU decay.  Inserting into a full row evicts the
  coldest slot (smallest count, ties to the smallest delta).
* **Prediction** — a greedy chain walk: starting from the just-observed
  delta, repeatedly take the row's strongest successor (largest count,
  ties to the smallest delta) provided it clears
  :attr:`PanglossConfig.confidence_percent` percent of the row total,
  step the offset by it, and emit the resulting line while it stays
  inside the page.  At most :attr:`PanglossConfig.degree` steps.
  Prediction lookups do **not** refresh row recency; only training
  does.

Everything is integer arithmetic — no floats, no randomness — so the
prefetcher is trivially deterministic across engines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import pangloss_storage


@dataclass(frozen=True)
class PanglossConfig:
    """Geometry of the Pangloss prefetcher.

    Attributes:
        lines_per_page: page size in cache lines (power of two); deltas
            and predictions never cross a page boundary.
        page_entries: page-tracker capacity (fully assoc., LRU).
        markov_rows: transition-table row capacity (fully assoc., LRU).
        row_slots: successor slots per transition row.
        counter_max: saturation ceiling of the per-slot frequency
            counters; a bump past it halves the whole row (LFU decay).
        degree: maximum chain-walk depth (candidates per access).
        confidence_percent: a successor predicts only while its counter
            is at least this percentage of the row total.
        page_tag_bits / delta_bits: stored field widths, for storage
            accounting only.
    """

    lines_per_page: int = 64
    page_entries: int = 256
    markov_rows: int = 1024
    row_slots: int = 8
    counter_max: int = 15
    degree: int = 4
    confidence_percent: int = 20
    page_tag_bits: int = 32
    delta_bits: int = 7

    def __post_init__(self) -> None:
        if self.lines_per_page < 2 or (
            self.lines_per_page & (self.lines_per_page - 1)
        ):
            raise ConfigError(
                "pangloss: lines_per_page must be a power of two >= 2, "
                f"got {self.lines_per_page}"
            )
        for name in ("page_entries", "markov_rows", "row_slots", "degree"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"pangloss: {name} must be positive")
        if self.counter_max < 1:
            raise ConfigError("pangloss: counter_max must be at least 1")
        if not 0 <= self.confidence_percent <= 100:
            raise ConfigError(
                "pangloss: confidence_percent must be in [0, 100], "
                f"got {self.confidence_percent}"
            )


class PanglossPrefetcher(Prefetcher):
    """Per-page delta Markov chain with LFU-decayed frequency rows."""

    name = "pangloss"

    def __init__(self, config: PanglossConfig | None = None) -> None:
        self.config = config or PanglossConfig()
        self._page_shift = self.config.lines_per_page.bit_length() - 1
        self._offset_mask = self.config.lines_per_page - 1
        # page -> [last_offset, last_delta]; 0 delta means "none yet".
        self._pages: OrderedDict[int, List[int]] = OrderedDict()
        # prev_delta -> [total, {next_delta: count}] (slot dict keeps
        # insertion order; recency lives in the outer OrderedDict).
        self._rows: OrderedDict[int, list] = OrderedDict()

    # -- training ------------------------------------------------------------

    def _decay_due(self, count: int) -> bool:
        """True when bumping a counter at ``count`` must decay the row.

        Split out so the fault-injection self-test can plant an
        off-by-one here without touching the training path.
        """
        return count + 1 > self.config.counter_max

    def _train(self, prev_delta: int, next_delta: int) -> None:
        row = self._rows.get(prev_delta)
        if row is None:
            if len(self._rows) >= self.config.markov_rows:
                self._rows.popitem(last=False)
            row = [0, {}]
            self._rows[prev_delta] = row
        else:
            self._rows.move_to_end(prev_delta)
        slots = row[1]
        if self._decay_due(slots.get(next_delta, 0)):
            # LFU decay: halve every counter, dropping the cold ones.
            for delta in list(slots):
                slots[delta] //= 2
                if slots[delta] == 0:
                    del slots[delta]
            row[0] = sum(slots.values())
        if next_delta not in slots and len(slots) >= self.config.row_slots:
            victim = min(slots, key=lambda delta: (slots[delta], delta))
            row[0] -= slots.pop(victim)
        slots[next_delta] = slots.get(next_delta, 0) + 1
        row[0] += 1

    # -- prediction ----------------------------------------------------------

    def _best_successor(self, delta: int) -> Optional[int]:
        """The confident strongest successor of ``delta`` (None if any)."""
        row = self._rows.get(delta)  # no recency refresh on lookups
        if row is None or row[0] <= 0:
            return None
        best: Optional[int] = None
        best_count = 0
        for successor, count in row[1].items():
            if count > best_count or (
                count == best_count and best is not None and successor < best
            ):
                best, best_count = successor, count
        if best is None:
            return None
        if best_count * 100 < row[0] * self.config.confidence_percent:
            return None
        return best

    # -- event protocol ------------------------------------------------------

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        if l1_hit:
            return []  # the chain correlates the miss stream
        page = line >> self._page_shift
        offset = line & self._offset_mask

        entry = self._pages.get(page)
        if entry is None:
            if len(self._pages) >= self.config.page_entries:
                self._pages.popitem(last=False)
            self._pages[page] = [offset, 0]
            return []
        self._pages.move_to_end(page)
        delta = offset - entry[0]
        if delta == 0:
            return []
        prev_delta = entry[1]
        entry[0] = offset
        entry[1] = delta
        if prev_delta != 0:
            self._train(prev_delta, delta)

        candidates: List[int] = []
        page_base = page << self._page_shift
        walk_offset = offset
        walk_delta = delta
        for _ in range(self.config.degree):
            successor = self._best_successor(walk_delta)
            if successor is None:
                break
            walk_offset += successor
            if not 0 <= walk_offset < self.config.lines_per_page:
                break
            target = page_base + walk_offset
            if target != line and target not in candidates:
                candidates.append(target)
            walk_delta = successor
        return candidates

    def storage_bits(self) -> int:
        return pangloss_storage(self.config).bits

    # -- inspection ----------------------------------------------------------

    def row_of(self, delta: int) -> List[Tuple[int, int]]:
        """``(next_delta, count)`` slots of one row, for tests."""
        row = self._rows.get(delta)
        if row is None:
            return []
        return list(row[1].items())
