"""Hardware prefetchers.

The comparison set of the paper's evaluation (Section VII):

* :class:`NoPrefetcher` — the no-prefetch baseline,
* :class:`StridePrefetcher` — a PC-indexed reference-prediction-table
  stride prefetcher [Fu et al., Jouppi],
* :class:`GhbPrefetcher` — Nesbit & Smith's global history buffer in both
  G/DC (global delta correlation) and PC/DC (PC-localized) flavours,
* :class:`SmsPrefetcher` — Somogyi et al.'s spatial memory streaming,

plus the CBWS prefetchers, which live in :mod:`repro.core` because they
are the paper's contribution.
"""

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.none import NoPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.prefetchers.ghb import GhbConfig, GhbPrefetcher, GlobalHistoryBuffer
from repro.prefetchers.sms import SmsConfig, SmsPrefetcher
from repro.prefetchers.storage import (
    StorageEstimate,
    cbws_storage,
    ghb_gdc_storage,
    ghb_pcdc_storage,
    sms_storage,
    stride_storage,
)

__all__ = [
    "Prefetcher",
    "NoPrefetcher",
    "StrideConfig",
    "StridePrefetcher",
    "GhbConfig",
    "GhbPrefetcher",
    "GlobalHistoryBuffer",
    "SmsConfig",
    "SmsPrefetcher",
    "StorageEstimate",
    "stride_storage",
    "ghb_gdc_storage",
    "ghb_pcdc_storage",
    "sms_storage",
    "cbws_storage",
]
