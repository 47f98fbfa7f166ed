"""Spatial memory streaming (Somogyi et al., ISCA 2006).

SMS learns which lines of a fixed-size spatial *region* a code region
touches, keyed by the trigger — the (PC, region offset) of the first
access to the region in a *generation*.  A generation starts at that
first access and ends when a line of the region leaves the L1 (eviction
or invalidation); the accumulated bit pattern is then stored in the
pattern history table (PHT).  The next time the same trigger fires, the
stored pattern is streamed: every set bit is prefetched at once.

Hardware structures (Table II geometry):

* **Filter table** (32 entries): regions touched exactly once so far;
  single-access regions never pollute the PHT.
* **Accumulation table** (AGT, 32 entries): active generations with ≥2
  accesses, accumulating the line bitmap.
* **Pattern history table** (512 entries, LRU): trigger → bit pattern.

The paper's critique (Section II-A) is structural: the region size is a
fixed design parameter, so access patterns that span input-dependent
ranges (the 3-D stencil) straddle region boundaries and lose coverage.
This implementation keeps that property — regions are aligned power-of-
two windows — so the critique is reproducible.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.constants import DEFAULT_LINE_SIZE
from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import sms_storage


@dataclass(frozen=True)
class SmsConfig:
    """Geometry of the SMS prefetcher (Table II values as defaults).

    Attributes:
        region_size: spatial region size in bytes (2 KB in the paper).
        filter_entries / agt_entries / pht_entries: table capacities.
        line_size: cache line size; region_size/line_size is the pattern
            width in bits.
        pc_bits / tag_bits / offset_bits: field widths for Table III.
    """

    region_size: int = 2048
    filter_entries: int = 32
    agt_entries: int = 32
    pht_entries: int = 512
    line_size: int = DEFAULT_LINE_SIZE
    pc_bits: int = 48
    tag_bits: int = 36
    offset_bits: int = 5

    def __post_init__(self) -> None:
        if not is_power_of_two(self.region_size):
            raise ConfigError("sms: region size must be a power of two")
        if self.region_size < self.line_size:
            raise ConfigError("sms: region must span at least one line")
        for field_name in ("filter_entries", "agt_entries", "pht_entries"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"sms: {field_name} must be positive")

    @property
    def lines_per_region(self) -> int:
        """Pattern width in bits."""
        return self.region_size // self.line_size


class _Generation:
    """One active region generation (filter or AGT resident)."""

    __slots__ = ("trigger_pc", "trigger_offset", "pattern")

    def __init__(self, trigger_pc: int, trigger_offset: int) -> None:
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset
        self.pattern = 1 << trigger_offset


class SmsPrefetcher(Prefetcher):
    """Spatial memory streaming prefetcher."""

    name = "sms"

    def __init__(self, config: SmsConfig | None = None) -> None:
        self.config = config or SmsConfig()
        self._region_shift = log2_exact(self.config.lines_per_region)
        self._offset_mask = self.config.lines_per_region - 1
        # region number -> generation, for both tables (LRU ordered).
        self._filter: OrderedDict[int, _Generation] = OrderedDict()
        self._agt: OrderedDict[int, _Generation] = OrderedDict()
        # (trigger pc, trigger offset) -> line bitmap.
        self._pht: OrderedDict[tuple[int, int], int] = OrderedDict()

    # -- event handlers --------------------------------------------------------

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        region = line >> self._region_shift
        offset = line & self._offset_mask

        generation = self._agt.get(region)
        if generation is not None:
            generation.pattern |= 1 << offset
            self._agt.move_to_end(region)
            return []

        generation = self._filter.pop(region, None)
        if generation is not None:
            # Second access: promote to the accumulation table.
            generation.pattern |= 1 << offset
            self._insert_agt(region, generation)
            return []

        # Trigger access: start a generation and stream any learned pattern.
        generation = _Generation(pc, offset)
        if len(self._filter) >= self.config.filter_entries:
            self._filter.popitem(last=False)  # silent drop, like hardware
        self._filter[region] = generation
        return self._stream(region, pc, offset)

    def on_l1_eviction(self, line: int) -> None:
        """A line left L1: close the generation of its region, if active."""
        region = line >> self._region_shift
        generation = self._agt.pop(region, None)
        if generation is None:
            generation = self._filter.pop(region, None)
        if generation is not None:
            self._learn(generation)

    # -- internals --------------------------------------------------------------

    def _insert_agt(self, region: int, generation: _Generation) -> None:
        if len(self._agt) >= self.config.agt_entries:
            _, victim = self._agt.popitem(last=False)
            self._learn(victim)  # a capacity-evicted generation still trains
        self._agt[region] = generation

    def _learn(self, generation: _Generation) -> None:
        key = (generation.trigger_pc, generation.trigger_offset)
        if key in self._pht:
            self._pht.move_to_end(key)
        elif len(self._pht) >= self.config.pht_entries:
            self._pht.popitem(last=False)
        self._pht[key] = generation.pattern

    def _stream(self, region: int, pc: int, offset: int) -> list[int]:
        pattern = self._pht.get((pc, offset))
        if pattern is None:
            return []
        self._pht.move_to_end((pc, offset))
        base_line = region << self._region_shift
        trigger_line = base_line + offset
        candidates = []
        remaining = pattern
        while remaining:
            bit = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            line = base_line + bit
            if line != trigger_line:  # the trigger itself is the demand
                candidates.append(line)
        return candidates

    def storage_bits(self) -> int:
        return sms_storage(self.config).bits

    # -- inspection ----------------------------------------------------------

    def learned_pattern(self, pc: int, offset: int) -> int | None:
        """Stored PHT pattern for a trigger, for tests."""
        return self._pht.get((pc, offset))
