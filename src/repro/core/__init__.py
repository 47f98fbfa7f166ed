"""The paper's contribution: the code block working set (CBWS) prefetcher.

Layering, bottom-up:

* :mod:`repro.core.cbws` — the CBWS / differential algebra of Section IV
  (Equations 1 and 2, Table I);
* :mod:`repro.core.buffers` — the per-block hardware buffers of Figure 8
  (current-CBWS FIFO, predecessor CBWSs, incremental differentials);
* :mod:`repro.core.history` — the differential hash, the shift-register
  tag fold, and the 16-entry differential history table;
* :mod:`repro.core.predictor` — Algorithm 1, tying the structures into
  the BLOCK_BEGIN / MEMORY_ACCESS / BLOCK_END protocol;
* :mod:`repro.core.prefetcher` — the standalone CBWS prefetcher
  (prefetch only on a history-table hit);
* :mod:`repro.core.hybrid` — CBWS+SMS, falling back to spatial memory
  streaming when the CBWS predictor has no confident prediction.
"""

from repro.core.cbws import CodeBlockWorkingSet, differential
from repro.core.buffers import CurrentCbwsBuffer, LastBlocksBuffer
from repro.core.history import (
    DifferentialHistoryTable,
    hash_differential,
    history_tag,
)
from repro.core.predictor import CbwsConfig, CbwsPredictor, PredictorStats
from repro.core.prefetcher import CbwsPrefetcher
from repro.core.hybrid import CbwsSmsPrefetcher

__all__ = [
    "CodeBlockWorkingSet",
    "differential",
    "CurrentCbwsBuffer",
    "LastBlocksBuffer",
    "DifferentialHistoryTable",
    "hash_differential",
    "history_tag",
    "CbwsConfig",
    "CbwsPredictor",
    "PredictorStats",
    "CbwsPrefetcher",
    "CbwsSmsPrefetcher",
]
