"""The no-prefetch baseline."""

from __future__ import annotations

from repro.prefetchers.base import Prefetcher


class NoPrefetcher(Prefetcher):
    """Never predicts anything; the Figure 12/14 baseline.

    Every hook is :class:`~repro.prefetchers.base.Prefetcher`'s own no-op.
    """

    name = "no-prefetch"
