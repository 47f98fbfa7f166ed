"""Learned prefetchers (post-2014 related work).

The paper's evaluated set stops at table-driven 2014 hardware; this
package holds the two learned designs the roadmap names as the next
comparison points:

* :mod:`~repro.prefetchers.learned.pangloss` — a per-page frequency
  Markov chain over cache-line deltas with LFU-decayed transition rows
  (Pangloss, arXiv 1906.00877).
* :mod:`~repro.prefetchers.learned.pythia` — a tabular online-RL
  prefetcher with a configurable feature vector and a bounded delta
  action space (Pythia-style, arXiv 2109.12021).

Both are ordinary :class:`~repro.prefetchers.base.Prefetcher` hook
implementations: they observe the committed demand stream and return
candidate lines, so the engine and its oracle
(:mod:`repro.check.reference`) drive them bit-identically with zero
engine changes.  All stochastic choices draw
from :func:`repro.common.rng.named_stream`, which is what lets the
clean-room oracles in :mod:`repro.check.oracles` reconstruct the exact
same draws.
"""

from repro.prefetchers.learned.pangloss import PanglossConfig, PanglossPrefetcher
from repro.prefetchers.learned.pythia import PythiaConfig, PythiaPrefetcher

__all__ = [
    "PanglossConfig",
    "PanglossPrefetcher",
    "PythiaConfig",
    "PythiaPrefetcher",
]
