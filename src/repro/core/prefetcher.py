"""The standalone CBWS prefetcher.

Deployment mode #1 of Section VII: "prefetch operations are issued only
if there is a hit in the CBWS history table.  On a miss, no prefetch is
issued."  The hit/miss gating is inherent to the predictor — a
shift-register tag that misses the table yields no candidates.

The compiler hints let the prefetcher be aggressive exactly where it is
safe: it observes *all* L1 accesses (hits included) but only inside
annotated blocks, and it issues an entire working set per prediction.
Because it never looks at a cache outcome, its predictions are a
function of the trace alone: ``on_trace`` fetches them as one
:class:`~repro.core.predictor.PredictionStream` and ``on_block_end``
replays them one block at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.core.predictor import (
    CbwsConfig,
    CbwsPredictor,
    PredictionStream,
    predict_trace,
)
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import cbws_storage

if TYPE_CHECKING:
    from repro.trace.stream import Trace


class CbwsPrefetcher(Prefetcher):
    """Standalone code-block-working-set prefetcher."""

    name = "cbws"
    #: The Algorithm 1 implementation whose predictions are replayed.
    predictor_type: type[CbwsPredictor] = CbwsPredictor

    def __init__(self, config: CbwsConfig | None = None) -> None:
        self.config = config or CbwsConfig()
        #: The current run's predictions (None before ``on_trace``).
        self.stream: PredictionStream | None = None
        #: BLOCK_ENDs replayed so far in the current run.
        self.blocks_replayed = 0

    def on_trace(self, trace: Trace, line_shift: int) -> None:
        self.stream = predict_trace(trace, self.config, line_shift,
                                    self.predictor_type)
        self.blocks_replayed = 0

    def on_block_end(self, block_id: int) -> list[int]:
        stream = self.stream
        if stream is None:
            raise ConfigError("cbws: on_block_end before on_trace")
        index = self.blocks_replayed
        self.blocks_replayed = index + 1
        return stream.block(index)

    def storage_bits(self) -> int:
        return cbws_storage(self.config).bits
