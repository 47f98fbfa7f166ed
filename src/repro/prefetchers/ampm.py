"""Access Map Pattern Matching (Ishii, Inaba & Hiraki, JILP 2011).

An extension beyond the paper's evaluated set: Section III-A discusses
AMPM as the closest zone-based design — it "combines concentration zones
with cache line bitmaps in order to identify spatial streams and predict
future strides within zones.  Importantly, the prefetcher is not
PC-based and only targets global streaming patterns."

The implementation keeps an access-map table of recently touched,
page-sized zones; each map is a bitmap of the lines accessed in the
zone.  On every access at offset ``o``, the pattern matcher tests each
candidate stride ``d``: if ``o - d`` and ``o - 2d`` were both accessed,
the zone exhibits stride ``d`` and ``o + d`` (up to ``degree`` steps) is
prefetched.  Matching is purely spatial — exactly why, per the paper,
AMPM "first identifies patterns inside an iteration and, only if such
patterns are not found, may identify patterns across iterations".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import ampm_storage


@dataclass(frozen=True)
class AmpmConfig:
    """Geometry of the AMPM prefetcher.

    Attributes:
        zone_lines: lines per concentration zone (64 = one 4 KB page).
        map_entries: access maps kept (fully associative, LRU).
        max_stride: largest stride tested by the matcher.
        degree: prefetches issued per matched stride.
        tag_bits: zone tag width, for storage accounting.
    """

    zone_lines: int = 64
    map_entries: int = 52
    max_stride: int = 16
    degree: int = 4
    tag_bits: int = 36

    def __post_init__(self) -> None:
        if not is_power_of_two(self.zone_lines):
            raise ConfigError("ampm: zone size must be a power of two")
        if self.map_entries <= 0:
            raise ConfigError("ampm: need at least one access map")
        if self.max_stride <= 0 or self.degree <= 0:
            raise ConfigError("ampm: stride range and degree must be positive")

    @property
    def storage_bits_total(self) -> int:
        """Per map: tag + accessed bitmap + prefetched bitmap."""
        return ampm_storage(self).bits


class AmpmPrefetcher(Prefetcher):
    """Access map pattern matching prefetcher."""

    name = "ampm"

    def __init__(self, config: AmpmConfig | None = None) -> None:
        self.config = config or AmpmConfig()
        self._zone_shift = log2_exact(self.config.zone_lines)
        self._offset_mask = self.config.zone_lines - 1
        # zone number -> (accessed bitmap, prefetched bitmap)
        self._maps: OrderedDict[int, list[int]] = OrderedDict()

    # -- map maintenance ------------------------------------------------------

    def _map_for(self, zone: int, create: bool) -> list[int] | None:
        entry = self._maps.get(zone)
        if entry is not None:
            self._maps.move_to_end(zone)
            return entry
        if not create:
            return None
        if len(self._maps) >= self.config.map_entries:
            self._maps.popitem(last=False)
        entry = [0, 0]
        self._maps[zone] = entry
        return entry

    def _is_accessed(self, zone: int, offset: int) -> bool:
        """Accessed-bit test with zone-boundary crossing."""
        while offset < 0:
            zone -= 1
            offset += self.config.zone_lines
        while offset >= self.config.zone_lines:
            zone += 1
            offset -= self.config.zone_lines
        entry = self._maps.get(zone)
        return bool(entry and (entry[0] >> offset) & 1)

    # -- prefetcher interface --------------------------------------------------

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        zone = line >> self._zone_shift
        offset = line & self._offset_mask
        entry = self._map_for(zone, create=True)
        entry[0] |= 1 << offset

        candidates: list[int] = []
        config = self.config
        for direction in (1, -1):
            for magnitude in range(1, config.max_stride + 1):
                stride = direction * magnitude
                if not self._is_accessed(zone, offset - stride):
                    continue
                if not self._is_accessed(zone, offset - 2 * stride):
                    continue
                for step in range(1, config.degree + 1):
                    target = line + stride * step
                    if target < 0:
                        break
                    if not self._already_covered(target):
                        self._mark_prefetched(target)
                        candidates.append(target)
                break  # nearest matching stride in this direction wins
        return candidates

    def _already_covered(self, line: int) -> bool:
        entry = self._maps.get(line >> self._zone_shift)
        if entry is None:
            return False
        offset = line & self._offset_mask
        return bool(((entry[0] | entry[1]) >> offset) & 1)

    def _mark_prefetched(self, line: int) -> None:
        entry = self._map_for(line >> self._zone_shift, create=True)
        entry[1] |= 1 << (line & self._offset_mask)

    def storage_bits(self) -> int:
        return self.config.storage_bits_total

    # -- inspection ----------------------------------------------------------

    def accessed_bitmap(self, zone: int) -> int:
        """Accessed-line bitmap of a zone (testing helper)."""
        entry = self._maps.get(zone)
        return entry[0] if entry else 0
