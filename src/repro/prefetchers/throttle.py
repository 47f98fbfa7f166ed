"""Feedback-directed prefetch throttling (Srinath et al., HPCA 2007).

The paper takes its timeliness/accuracy taxonomy from this work ([30])
and notes that an "aggressive configuration ... would be too aggressive
for other program phases, where it may pollute the caches and degrade
the overall performance".  FDP is the classical answer: measure the
prefetcher's recent accuracy and scale its aggressiveness up or down.

:class:`ThrottledPrefetcher` wraps any :class:`Prefetcher` and applies
interval-based feedback:

* the engine's eviction callbacks and a small sample of issued lines let
  the wrapper estimate *accuracy* (used / issued) per interval;
* high accuracy raises the fraction of candidates passed through (up to
  all of them); low accuracy lowers it (down to ``min_quota``).

This is an extension beyond the paper's evaluated configurations; the
ablation bench uses it to show how much of the CBWS win survives under
conservative throttling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher

if TYPE_CHECKING:
    from repro.trace.stream import Trace


@dataclass(frozen=True)
class ThrottleConfig:
    """Feedback parameters.

    Attributes:
        interval_accesses: feedback interval length, in observed demand
            accesses.
        high_accuracy / low_accuracy: thresholds on used/issued.
        quota_levels: aggressiveness ladder — the fraction of a
            prediction batch passed through at each level.
        start_level: initial ladder position.
    """

    interval_accesses: int = 2048
    high_accuracy: float = 0.75
    low_accuracy: float = 0.40
    quota_levels: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    start_level: int = 2

    def __post_init__(self) -> None:
        if self.interval_accesses <= 0:
            raise ConfigError("throttle: interval must be positive")
        if not self.quota_levels:
            raise ConfigError("throttle: need at least one quota level")
        if not 0 <= self.start_level < len(self.quota_levels):
            raise ConfigError("throttle: start level out of range")
        if not 0.0 <= self.low_accuracy <= self.high_accuracy <= 1.0:
            raise ConfigError("throttle: need 0 <= low <= high <= 1")
        if any(not 0.0 < q <= 1.0 for q in self.quota_levels):
            raise ConfigError("throttle: quotas must be in (0, 1]")


class ThrottledPrefetcher(Prefetcher):
    """Accuracy-feedback wrapper around any prefetcher."""

    def __init__(
        self,
        inner: Prefetcher,
        config: ThrottleConfig | None = None,
    ) -> None:
        self.inner = inner
        self.config = config or ThrottleConfig()
        self.name = f"fdp({inner.name})"
        self.level = self.config.start_level
        self._accesses_in_interval = 0
        self._issued_in_interval = 0
        self._used_in_interval = 0
        self._outstanding: set[int] = set()
        #: (interval index, accuracy, level) history for inspection.
        self.feedback_log: list[tuple[int, float, int]] = []
        self._interval_index = 0

    # -- feedback ------------------------------------------------------------

    def _filter(self, candidates: list[int]) -> list[int]:
        if not candidates:
            return candidates
        quota = self.config.quota_levels[self.level]
        keep = max(1, int(len(candidates) * quota + 1e-9))
        passed = candidates[:keep]
        self._issued_in_interval += len(passed)
        self._outstanding.update(passed)
        return passed

    def _tick(self) -> None:
        self._accesses_in_interval += 1
        if self._accesses_in_interval < self.config.interval_accesses:
            return
        issued = self._issued_in_interval
        accuracy = self._used_in_interval / issued if issued else 1.0
        if issued:
            if accuracy >= self.config.high_accuracy:
                self.level = min(
                    self.level + 1, len(self.config.quota_levels) - 1
                )
            elif accuracy < self.config.low_accuracy:
                self.level = max(self.level - 1, 0)
        self.feedback_log.append((self._interval_index, accuracy, self.level))
        self._interval_index += 1
        self._accesses_in_interval = 0
        self._issued_in_interval = 0
        self._used_in_interval = 0

    # -- prefetcher interface --------------------------------------------------

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        if line in self._outstanding:
            self._outstanding.discard(line)
            self._used_in_interval += 1
        self._tick()
        return self._filter(self.inner.on_access(pc, line, address, l1_hit))

    def on_trace(self, trace: Trace, line_shift: int) -> None:
        self.inner.on_trace(trace, line_shift)

    def on_block_end(self, block_id: int) -> list[int]:
        return self._filter(self.inner.on_block_end(block_id))

    def on_l1_eviction(self, line: int) -> None:
        self.inner.on_l1_eviction(line)

    def storage_bits(self) -> int:
        # Counters plus a small outstanding-line CAM (modelled as 64
        # entries of 32-bit line addresses).
        return self.inner.storage_bits() + 64 * 32 + 4 * 16
