"""Markov prefetcher (Joseph & Grunwald, ISCA 1997).

Cited by the paper's related work ([13]): "a probabilistic model that
correlates consecutive pairs [of] memory addresses".  The prefetcher
keeps a correlation table mapping a miss line to the lines that most
recently followed it in the miss stream, and prefetches those successors
on the next miss to that line.

Included as a second extension baseline: correlation prefetching covers
*repeating* irregular sequences (the pointer chase of mcf repeats its
permutation cycle) that no stride/delta scheme can, at the cost of a
correlation table that must approach the working set's size — the
contrast the paper draws when arguing that "associating address sets
with code blocks improves accuracy and enables a longer prefetching
window".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import markov_storage


@dataclass(frozen=True)
class MarkovConfig:
    """Geometry of the Markov prefetcher.

    Attributes:
        table_entries: correlation table capacity (fully assoc., LRU).
            The original design used megabyte-scale tables; the default
            here (16K entries = 192 KB) preserves that character.
        successors: successor slots per entry (the original uses 2-4).
        line_bits: stored line-address width, for storage accounting.
    """

    table_entries: int = 16384
    successors: int = 2
    line_bits: int = 32

    def __post_init__(self) -> None:
        if self.table_entries <= 0:
            raise ConfigError("markov: table needs at least one entry")
        if self.successors <= 0:
            raise ConfigError("markov: need at least one successor slot")


class MarkovPrefetcher(Prefetcher):
    """First-order miss-address correlation prefetcher."""

    name = "markov"

    def __init__(self, config: MarkovConfig | None = None) -> None:
        self.config = config or MarkovConfig()
        # line -> most-recent-first successor list.
        self._table: OrderedDict[int, list[int]] = OrderedDict()
        self._last_miss: int | None = None

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        if l1_hit:
            return []  # the Markov model correlates the miss stream

        # Train: record `line` as the successor of the previous miss.
        previous = self._last_miss
        if previous is not None and previous != line:
            successors = self._table.get(previous)
            if successors is None:
                if len(self._table) >= self.config.table_entries:
                    self._table.popitem(last=False)
                self._table[previous] = [line]
            else:
                if line in successors:
                    successors.remove(line)
                successors.insert(0, line)
                del successors[self.config.successors :]
                self._table.move_to_end(previous)
        self._last_miss = line

        # Predict: the recorded successors of this line.
        successors = self._table.get(line)
        if successors is None:
            return []
        self._table.move_to_end(line)
        return list(successors)

    def storage_bits(self) -> int:
        return markov_storage(self.config).bits

    # -- inspection ----------------------------------------------------------

    def successors_of(self, line: int) -> list[int]:
        """Recorded successors (most recent first), for tests."""
        return list(self._table.get(line, []))
