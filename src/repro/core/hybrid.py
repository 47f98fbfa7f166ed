"""The CBWS+SMS integrated prefetcher.

Deployment mode #2 of Section VII: "Using CBWS as an add-on for the SMS
prefetcher (integrated policy) to optimize performance of tight loops.
The CBWS prefetcher issues a prefetch only if the current access pattern
hits in the history table.  Otherwise, the SMS prefetcher issues the
prefetch."

Policy implemented here:

* SMS trains on every access, always — its pattern tables must stay warm
  for the program phases where CBWS has no loop annotations.
* CBWS predictions (issued at BLOCK_END on a history-table hit) take
  priority: the lines CBWS recently claimed are remembered in a small
  ownership filter, and SMS candidates for those lines are dropped —
  duplicate streaming would only cost bandwidth and pollute accuracy.
* Everything else SMS predicts flows through.  When CBWS has no
  confident prediction (history-table miss), nothing is claimed and SMS
  provides full coverage — the fall-back the paper credits for fft and
  streamcluster, where "the history table is too small to represent a
  meaningful CBWS differential history".
* When the block overflowed the CBWS buffer, a table hit still predicts
  (and claims) the lines of the buffered prefix of the working set; the
  lines beyond the buffer are never claimed, so SMS keeps covering
  them — the reason bzip2 degrades only mildly.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.predictor import CbwsConfig
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.sms import SmsConfig, SmsPrefetcher

if TYPE_CHECKING:
    from repro.trace.stream import Trace

#: Capacity of the CBWS line-ownership filter (a small FIFO CAM).
_OWNED_LINES = 128


class CbwsSmsPrefetcher(Prefetcher):
    """CBWS as an add-on over spatial memory streaming."""

    name = "cbws+sms"

    def __init__(
        self,
        cbws_config: CbwsConfig | None = None,
        sms_config: SmsConfig | None = None,
    ) -> None:
        self.cbws = CbwsPrefetcher(cbws_config)
        self.sms = SmsPrefetcher(sms_config)
        self._owned: set[int] = set()
        self._owned_fifo: deque[int] = deque()

    def _claim(self, lines: list[int]) -> None:
        for line in lines:
            if line in self._owned:
                continue
            if len(self._owned_fifo) >= _OWNED_LINES:
                self._owned.discard(self._owned_fifo.popleft())
            self._owned_fifo.append(line)
            self._owned.add(line)

    def on_trace(self, trace: Trace, line_shift: int) -> None:
        self.cbws.on_trace(trace, line_shift)

    def on_block_end(self, block_id: int) -> list[int]:
        predicted = self.cbws.on_block_end(block_id)
        self._claim(predicted)
        return predicted

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        sms_candidates = self.sms.on_access(pc, line, address, l1_hit)
        if not sms_candidates:
            return []
        owned = self._owned
        return [cand for cand in sms_candidates if cand not in owned]

    def on_l1_eviction(self, line: int) -> None:
        self.sms.on_l1_eviction(line)

    def storage_bits(self) -> int:
        return self.cbws.storage_bits() + self.sms.storage_bits()
