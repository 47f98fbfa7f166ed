"""The paper's contribution: the code block working set (CBWS) prefetcher.

Layering, bottom-up:

* :mod:`repro.core.cbws` — the CBWS / differential algebra of Section IV
  (Equations 1 and 2, Table I);
* :mod:`repro.core.history` — the differential hash and the
  shift-register tag fold;
* :mod:`repro.core.predictor` — the Figure 8 structures as the plain
  fields of one ``CbwsPredictor``, and Algorithm 1: ``predict_trace``
  runs the BLOCK_BEGIN / MEMORY_ACCESS / BLOCK_END protocol once over a
  whole trace, as one loop over its event columns;
* :mod:`repro.core.prefetcher` — the standalone CBWS prefetcher
  (prefetch only on a history-table hit), replaying those predictions;
* :mod:`repro.core.hybrid` — CBWS+SMS, falling back to spatial memory
  streaming when the CBWS predictor has no confident prediction.
"""

from repro.core.cbws import CodeBlockWorkingSet, differential
from repro.core.history import hash_differential, history_tag
from repro.core.predictor import (
    CbwsConfig,
    CbwsPredictor,
    PredictionStream,
    PredictorStats,
    predict_trace,
)
from repro.core.prefetcher import CbwsPrefetcher
from repro.core.hybrid import CbwsSmsPrefetcher

__all__ = [
    "CodeBlockWorkingSet",
    "differential",
    "hash_differential",
    "history_tag",
    "CbwsConfig",
    "CbwsPredictor",
    "PredictionStream",
    "PredictorStats",
    "predict_trace",
    "CbwsPrefetcher",
    "CbwsSmsPrefetcher",
]
