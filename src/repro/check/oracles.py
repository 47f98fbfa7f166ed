"""Golden-model oracles for differential verification.

Every class here is a slow, obviously-correct re-implementation of one
prefetcher (or the cache hierarchy), written directly from the paper and
DESIGN.md **without importing any implementation code** — the whole
point is that an oracle and its production counterpart can only agree by
both being right.  Data structures are plain lists/dicts with explicit
recency bookkeeping; nothing is optimized.

Oracles speak the same event protocol as
:class:`repro.prefetchers.base.Prefetcher` (``on_access(pc, line,
address, l1_hit)`` / ``on_block_begin`` / ``on_block_end`` /
``on_l1_eviction``) so the differential harness can drive both sides
with identical stimuli.

Each oracle additionally exposes a ``features`` set of string labels
recording which behaviours a stimulus exercised ("stride:steady",
"cbws:table-evict", ...).  The fuzzer uses these labels as its coverage
signal: a mutant that lights up a new label joins the corpus.

Two deliberate implementation quirks are mirrored (and documented at the
site): the stride prefetcher converts predicted addresses to lines with
the *global* 64-byte line shift regardless of the configured line size,
and the CBWS history table's random eviction draws from
``random.Random(seed)`` in table-insertion key order.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional, Set, Tuple


class _OracleBase:
    """Shared no-op protocol so each oracle only overrides what it uses."""

    name = "oracle"

    def __init__(self) -> None:
        self.features: Set[str] = set()

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        return []

    def on_block_begin(self, block_id: int) -> None:
        pass

    def on_block_end(self, block_id: int) -> List[int]:
        return []

    def on_l1_eviction(self, line: int) -> None:
        pass


class NoPrefetchOracle(_OracleBase):
    """The trivial oracle: never predicts anything."""

    name = "no-prefetch"


class StrideOracle(_OracleBase):
    """Reference prediction table (Chen & Baer / Fu-Patel-Janssens).

    A fully-associative, LRU table keyed by PC.  Each entry carries the
    last byte address, the current stride, and the classic four-state
    confidence machine; only STEADY entries with a non-zero stride
    predict, ``degree`` strides ahead at word granularity.

    Mirrored quirk: predicted addresses are converted to cache lines
    with a hardcoded ``>> 6`` (64-byte lines), matching the
    implementation, which uses the global line shift rather than the
    configured line size.  Oracle diffs therefore run at 64-byte lines.
    """

    name = "stride"

    INITIAL, STEADY, TRANSIENT, NO_PRED = "initial", "steady", "transient", "no-pred"

    def __init__(self, table_entries: int = 256, degree: int = 2) -> None:
        super().__init__()
        self.table_entries = table_entries
        self.degree = degree
        # pc -> [last_address, stride, state]; dict order is LRU -> MRU.
        self.table: Dict[int, List[Any]] = {}

    def _touch(self, pc: int) -> None:
        self.table[pc] = self.table.pop(pc)

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        entry = self.table.get(pc)
        if entry is None:
            if len(self.table) >= self.table_entries:
                oldest = next(iter(self.table))
                del self.table[oldest]
                self.features.add("stride:evict")
            self.table[pc] = [address, 0, self.INITIAL]
            self.features.add("stride:new-entry")
            return []
        self._touch(pc)

        new_stride = address - entry[0]
        entry[0] = address
        matched = new_stride == entry[1]
        state = entry[2]
        if state == self.INITIAL:
            if matched:
                entry[2] = self.STEADY
            else:
                entry[1] = new_stride
                entry[2] = self.TRANSIENT
        elif state == self.STEADY:
            if not matched:
                entry[2] = self.INITIAL
        elif state == self.TRANSIENT:
            if matched:
                entry[2] = self.STEADY
            else:
                entry[1] = new_stride
                entry[2] = self.NO_PRED
        else:  # NO_PRED
            if matched:
                entry[2] = self.TRANSIENT
            else:
                entry[1] = new_stride
        self.features.add(f"stride:{entry[2]}")

        if entry[2] != self.STEADY or entry[1] == 0:
            return []
        candidates: List[int] = []
        walk = address
        for _ in range(self.degree):
            walk += entry[1]
            target = walk >> 6  # mirrored quirk: global 64-byte line shift
            if target != line and target >= 0 and target not in candidates:
                candidates.append(target)
        if candidates:
            self.features.add("stride:predict")
        return candidates


class GhbOracle(_OracleBase):
    """Global history buffer with delta correlation (Nesbit & Smith).

    The GHB proper is modelled as the full per-key push history plus a
    global push counter: an entry is live while its push serial is
    within ``buffer_entries`` of the newest push, which is exactly the
    set a newest-first link walk of the circular buffer reaches (links
    go strictly backwards in time and die at the first overwritten
    slot).  Prediction is the canonical correlation walk: take the last
    ``history_length - 1`` deltas of the live chain, find their most
    recent earlier occurrence, replay up to ``degree`` following deltas.
    Only misses (L1 and L2) train and trigger.
    """

    GLOBAL_KEY = -1

    def __init__(
        self,
        mode: str = "pc",
        buffer_entries: int = 256,
        history_length: int = 3,
        degree: int = 3,
    ) -> None:
        super().__init__()
        self.mode = mode
        self.name = "ghb-g/dc" if mode == "global" else "ghb-pc/dc"
        self.buffer_entries = buffer_entries
        self.match_length = history_length - 1
        self.degree = degree
        self.pushes = 0
        self.history: Dict[int, List[Tuple[int, int]]] = {}  # key -> [(serial, line)]

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        if l1_hit:
            return []
        key = self.GLOBAL_KEY if self.mode == "global" else pc
        entries = self.history.setdefault(key, [])
        entries.append((self.pushes, line))
        self.pushes += 1
        self.features.add("ghb:miss")

        oldest_live = self.pushes - self.buffer_entries
        # Keep per-key history bounded; dead entries can never matter again.
        if len(entries) > 2 * self.buffer_entries:
            entries[:] = [e for e in entries if e[0] >= oldest_live]
        addresses = [past for serial, past in entries if serial >= oldest_live]
        if len(addresses) < self.match_length + 2:
            return []
        deltas = [addresses[i + 1] - addresses[i] for i in range(len(addresses) - 1)]
        match = deltas[-self.match_length :]
        for position in range(len(deltas) - self.match_length - 1, -1, -1):
            if deltas[position : position + self.match_length] == match:
                base = addresses[-1]
                candidates = []
                replay = deltas[
                    position + self.match_length :
                    position + self.match_length + self.degree
                ]
                for delta in replay:
                    base += delta
                    candidates.append(base)
                self.features.add("ghb:predict")
                return candidates
        return []


class SmsOracle(_OracleBase):
    """Spatial memory streaming (Somogyi et al.).

    Filter table (single-access regions), accumulation table (active
    generations), pattern history table keyed by (trigger PC, trigger
    offset).  A generation closes when any of its lines leaves L1 or
    when it is capacity-evicted from the AGT; closing stores the bitmap
    in the PHT.  A trigger access that hits the PHT streams every set
    bit (ascending, trigger line excluded).
    """

    name = "sms"

    def __init__(
        self,
        region_size: int = 2048,
        line_size: int = 64,
        filter_entries: int = 32,
        agt_entries: int = 32,
        pht_entries: int = 512,
    ) -> None:
        super().__init__()
        self.lines_per_region = region_size // line_size
        self.region_shift = self.lines_per_region.bit_length() - 1
        self.filter_entries = filter_entries
        self.agt_entries = agt_entries
        self.pht_entries = pht_entries
        # region -> [trigger_pc, trigger_offset, pattern]; order = recency.
        self.filter: Dict[int, List[int]] = {}
        self.agt: Dict[int, List[int]] = {}
        # (trigger_pc, trigger_offset) -> pattern; order = recency.
        self.pht: Dict[Tuple[int, int], int] = {}

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        region = line >> self.region_shift
        offset = line & (self.lines_per_region - 1)

        generation = self.agt.get(region)
        if generation is not None:
            generation[2] |= 1 << offset
            self.agt[region] = self.agt.pop(region)  # refresh recency
            self.features.add("sms:accumulate")
            return []

        generation = self.filter.pop(region, None)
        if generation is not None:
            generation[2] |= 1 << offset
            if len(self.agt) >= self.agt_entries:
                victim_region = next(iter(self.agt))
                self._learn(self.agt.pop(victim_region))
                self.features.add("sms:agt-evict")
            self.agt[region] = generation
            self.features.add("sms:promote")
            return []

        if len(self.filter) >= self.filter_entries:
            oldest = next(iter(self.filter))
            del self.filter[oldest]  # silent drop, as in hardware
            self.features.add("sms:filter-evict")
        self.filter[region] = [pc, offset, 1 << offset]
        self.features.add("sms:trigger")

        pattern = self.pht.get((pc, offset))
        if pattern is None:
            return []
        self.pht[(pc, offset)] = self.pht.pop((pc, offset))
        base_line = region << self.region_shift
        candidates = [
            base_line + bit
            for bit in range(self.lines_per_region)
            if pattern >> bit & 1 and bit != offset
        ]
        if candidates:
            self.features.add("sms:stream")
        return candidates

    def on_l1_eviction(self, line: int) -> None:
        region = line >> self.region_shift
        generation = self.agt.pop(region, None)
        if generation is None:
            generation = self.filter.pop(region, None)
        if generation is not None:
            self._learn(generation)
            self.features.add("sms:close-generation")

    def _learn(self, generation: List[int]) -> None:
        key = (generation[0], generation[1])
        if key in self.pht:
            del self.pht[key]  # re-learn refreshes recency
        elif len(self.pht) >= self.pht_entries:
            oldest = next(iter(self.pht))
            del self.pht[oldest]
            self.features.add("sms:pht-evict")
        self.pht[key] = generation[2]
        self.features.add("sms:pht-learn")


class MarkovOracle(_OracleBase):
    """First-order miss-address correlation (Joseph & Grunwald).

    A fully-associative LRU table mapping a miss line to its most recent
    successors.  Every miss (a) records itself as successor of the
    previous miss, (b) predicts its own recorded successors.
    """

    name = "markov"

    def __init__(self, table_entries: int = 16384, successors: int = 2) -> None:
        super().__init__()
        self.table_entries = table_entries
        self.successors = successors
        self.table: Dict[int, List[int]] = {}  # order = recency
        self.last_miss: Optional[int] = None

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        if l1_hit:
            return []
        previous = self.last_miss
        if previous is not None and previous != line:
            followers = self.table.get(previous)
            if followers is None:
                if len(self.table) >= self.table_entries:
                    oldest = next(iter(self.table))
                    del self.table[oldest]
                    self.features.add("markov:evict")
                self.table[previous] = [line]
            else:
                if line in followers:
                    followers.remove(line)
                followers.insert(0, line)
                del followers[self.successors :]
                self.table[previous] = self.table.pop(previous)
            self.features.add("markov:train")
        self.last_miss = line

        followers = self.table.get(line)
        if followers is None:
            return []
        self.table[line] = self.table.pop(line)
        self.features.add("markov:predict")
        return list(followers)


class AmpmOracle(_OracleBase):
    """Access map pattern matching (Ishii, Inaba & Hiraki).

    Per-zone bitmaps of accessed and prefetched lines; on every access
    the matcher probes strides ±1..±max_stride and, for the nearest
    matching stride in each direction, issues up to ``degree`` steps
    not already covered.  Recency rules mirror the implementation:
    accessed-bit *tests* do not refresh zone recency, but marking a line
    prefetched does (it goes through the creating lookup).
    """

    name = "ampm"

    def __init__(
        self,
        zone_lines: int = 64,
        map_entries: int = 52,
        max_stride: int = 16,
        degree: int = 4,
    ) -> None:
        super().__init__()
        self.zone_lines = zone_lines
        self.zone_shift = zone_lines.bit_length() - 1
        self.map_entries = map_entries
        self.max_stride = max_stride
        self.degree = degree
        # zone -> [accessed_offsets, prefetched_offsets]; order = recency.
        self.maps: Dict[int, List[Set[int]]] = {}

    def _map_for(self, zone: int) -> List[Set[int]]:
        entry = self.maps.get(zone)
        if entry is not None:
            self.maps[zone] = self.maps.pop(zone)
            return entry
        if len(self.maps) >= self.map_entries:
            oldest = next(iter(self.maps))
            del self.maps[oldest]
            self.features.add("ampm:map-evict")
        entry = [set(), set()]
        self.maps[zone] = entry
        return entry

    def _is_accessed(self, zone: int, offset: int) -> bool:
        while offset < 0:
            zone -= 1
            offset += self.zone_lines
        while offset >= self.zone_lines:
            zone += 1
            offset -= self.zone_lines
        entry = self.maps.get(zone)  # no recency refresh on tests
        return entry is not None and offset in entry[0]

    def _covered(self, line: int) -> bool:
        entry = self.maps.get(line >> self.zone_shift)
        if entry is None:
            return False
        offset = line & (self.zone_lines - 1)
        return offset in entry[0] or offset in entry[1]

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        zone = line >> self.zone_shift
        offset = line & (self.zone_lines - 1)
        self._map_for(zone)[0].add(offset)

        candidates: List[int] = []
        for direction in (1, -1):
            for magnitude in range(1, self.max_stride + 1):
                stride = direction * magnitude
                if not self._is_accessed(zone, offset - stride):
                    continue
                if not self._is_accessed(zone, offset - 2 * stride):
                    continue
                self.features.add(
                    "ampm:match-fwd" if direction == 1 else "ampm:match-bwd"
                )
                for step in range(1, self.degree + 1):
                    target = line + stride * step
                    if target < 0:
                        break
                    if not self._covered(target):
                        self._map_for(target >> self.zone_shift)[1].add(
                            target & (self.zone_lines - 1)
                        )
                        candidates.append(target)
                break  # nearest matching stride per direction wins
        return candidates


class PanglossOracle(_OracleBase):
    """Frequency-based delta Markov chain (Pangloss, arXiv 1906.00877).

    Transcribed from the documented machine: an LRU page tracker of
    ``(last_offset, last_delta)`` pairs fed by the miss stream, and an
    LRU transition table mapping a previous delta to a row of
    ``next_delta -> counter`` slots with a running total.  Bumping a
    counter past ``counter_max`` first halves the whole row (dropping
    zeroed slots); inserting into a full row evicts the coldest slot
    (smallest count, ties to the smallest delta).  Prediction walks the
    chain greedily — strongest confident successor per step, in-page
    only, up to ``degree`` candidates — without refreshing row recency.
    """

    name = "pangloss"

    def __init__(
        self,
        lines_per_page: int = 64,
        page_entries: int = 256,
        markov_rows: int = 1024,
        row_slots: int = 8,
        counter_max: int = 15,
        degree: int = 4,
        confidence_percent: int = 20,
    ) -> None:
        super().__init__()
        self.lines_per_page = lines_per_page
        self.page_shift = lines_per_page.bit_length() - 1
        self.page_entries = page_entries
        self.markov_rows = markov_rows
        self.row_slots = row_slots
        self.counter_max = counter_max
        self.degree = degree
        self.confidence_percent = confidence_percent
        self.pages: Dict[int, List[int]] = {}  # page -> [offset, delta]
        self.rows: Dict[int, list] = {}  # prev -> [total, {next: count}]

    def _train(self, prev_delta: int, next_delta: int) -> None:
        row = self.rows.get(prev_delta)
        if row is None:
            if len(self.rows) >= self.markov_rows:
                del self.rows[next(iter(self.rows))]
                self.features.add("pangloss:row-evict")
            row = [0, {}]
            self.rows[prev_delta] = row
        else:
            self.rows[prev_delta] = self.rows.pop(prev_delta)
        slots = row[1]
        if slots.get(next_delta, 0) + 1 > self.counter_max:
            for delta in list(slots):
                slots[delta] //= 2
                if slots[delta] == 0:
                    del slots[delta]
            row[0] = sum(slots.values())
            self.features.add("pangloss:decay")
        if next_delta not in slots and len(slots) >= self.row_slots:
            victim = min(slots, key=lambda delta: (slots[delta], delta))
            row[0] -= slots.pop(victim)
            self.features.add("pangloss:slot-evict")
        slots[next_delta] = slots.get(next_delta, 0) + 1
        row[0] += 1
        self.features.add("pangloss:train")

    def _best(self, delta: int) -> Optional[int]:
        row = self.rows.get(delta)  # lookups leave recency alone
        if row is None or row[0] <= 0:
            return None
        best: Optional[int] = None
        best_count = 0
        for successor, count in row[1].items():
            if count > best_count or (
                count == best_count and best is not None and successor < best
            ):
                best, best_count = successor, count
        if best is None:
            return None
        if best_count * 100 < row[0] * self.confidence_percent:
            self.features.add("pangloss:low-confidence")
            return None
        return best

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        if l1_hit:
            return []
        page = line >> self.page_shift
        offset = line & (self.lines_per_page - 1)
        entry = self.pages.get(page)
        if entry is None:
            if len(self.pages) >= self.page_entries:
                del self.pages[next(iter(self.pages))]
                self.features.add("pangloss:page-evict")
            self.pages[page] = [offset, 0]
            self.features.add("pangloss:page-new")
            return []
        self.pages[page] = self.pages.pop(page)
        delta = offset - entry[0]
        if delta == 0:
            return []
        prev_delta = entry[1]
        entry[0] = offset
        entry[1] = delta
        if prev_delta != 0:
            self._train(prev_delta, delta)

        candidates: List[int] = []
        page_base = page << self.page_shift
        walk_offset = offset
        walk_delta = delta
        for _ in range(self.degree):
            successor = self._best(walk_delta)
            if successor is None:
                break
            walk_offset += successor
            if not 0 <= walk_offset < self.lines_per_page:
                break
            target = page_base + walk_offset
            if target != line and target not in candidates:
                candidates.append(target)
            walk_delta = successor
        if candidates:
            self.features.add("pangloss:predict")
        if len(candidates) >= 2:
            self.features.add("pangloss:chain")
        return candidates


class PythiaOracle(_OracleBase):
    """Tabular SARSA prefetcher (Pythia-style, arXiv 2109.12021).

    Transcribed from the documented machine: one decision per L1 miss,
    state built from the configured feature set (folded PC, non-zero
    in-page delta history, page offset), an LRU Q-table of float rows,
    epsilon-greedy action selection, and shadow-tracked predictions
    whose fate (timely / late / useless) becomes the SARSA reward.

    Mirrored stochastic contract: the implementation draws from the
    named stream ``"pythia.explore"``, which is ``random.Random`` seeded
    with ``(seed * 1_000_003 + crc32("pythia.explore")) & 0x7FFF_FFFF``;
    every decision first draws ``randrange(1_000_000)`` and, when it
    falls under ``round(epsilon * 1e6)``, a second ``randrange(actions)``
    picks uniformly.  Q-updates use the exact expression shape
    ``q + alpha * (r + gamma * q_next - q)`` so floats stay
    bit-identical.
    """

    name = "pythia"

    ACTIONS = (-6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32)

    def __init__(
        self,
        feature_set: str = "pc+delta",
        history_len: int = 2,
        actions: Tuple[int, ...] = ACTIONS,
        alpha: float = 0.0065,
        gamma: float = 0.556,
        epsilon: float = 0.002,
        q_entries: int = 4096,
        page_entries: int = 64,
        inflight_entries: int = 64,
        timely_age: int = 12,
        useless_age: int = 256,
        reward_timely: int = 20,
        reward_late: int = 12,
        reward_useless: int = -14,
        reward_none: int = -2,
        lines_per_page: int = 64,
        pc_bits: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.feature_parts = feature_set.split("+")
        self.history_len = history_len
        self.actions = actions
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon_cut = int(round(epsilon * 1_000_000))
        self.q_entries = q_entries
        self.page_entries = page_entries
        self.inflight_entries = inflight_entries
        self.timely_age = timely_age
        self.useless_age = useless_age
        self.reward_timely = reward_timely
        self.reward_late = reward_late
        self.reward_useless = reward_useless
        self.reward_none = reward_none
        self.lines_per_page = lines_per_page
        self.page_shift = lines_per_page.bit_length() - 1
        self.pc_mask = (1 << pc_bits) - 1
        derived = (seed * 1_000_003 + zlib.crc32(b"pythia.explore")) \
            & 0x7FFF_FFFF
        self.rng = random.Random(derived)
        self.tick = 0
        self.next_decision = 0
        self.history: List[int] = []
        self.pages: Dict[int, int] = {}  # page -> last offset; order = LRU
        self.q: Dict[tuple, List[float]] = {}  # state -> row; order = LRU
        self.inflight: Dict[int, Tuple[int, int]] = {}  # line -> (id, tick)
        self.ledger: Dict[int, list] = {}  # id -> [row, a, r, row', a']
        self.previous: Optional[int] = None

    def _apply(self, decision: int) -> None:
        entry = self.ledger.get(decision)
        if entry is None or entry[2] is None or entry[3] is None:
            return
        row, action, reward, next_row, next_action = entry
        q = row[action]
        row[action] = q + self.alpha * (
            reward + self.gamma * next_row[next_action] - q
        )
        del self.ledger[decision]
        self.features.add("pythia:learn")

    def _resolve(self, decision: int, reward: int) -> None:
        entry = self.ledger.get(decision)
        if entry is not None:
            entry[2] = reward
            self._apply(decision)

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        record = self.inflight.pop(line, None)
        if record is not None:
            decision, issue_tick = record
            if self.tick - issue_tick >= self.timely_age:
                self.features.add("pythia:timely")
                self._resolve(decision, self.reward_timely)
            else:
                self.features.add("pythia:late")
                self._resolve(decision, self.reward_late)
        if l1_hit:
            return []

        while self.inflight:
            stale = next(iter(self.inflight))
            decision, issue_tick = self.inflight[stale]
            if self.tick - issue_tick <= self.useless_age:
                break
            del self.inflight[stale]
            self.features.add("pythia:useless")
            self._resolve(decision, self.reward_useless)

        page = line >> self.page_shift
        offset = line & (self.lines_per_page - 1)
        last_offset = self.pages.get(page)
        if last_offset is None:
            if len(self.pages) >= self.page_entries:
                del self.pages[next(iter(self.pages))]
        else:
            self.pages[page] = self.pages.pop(page)
        self.pages[page] = offset
        delta = 0 if last_offset is None else offset - last_offset
        if delta != 0:
            self.history.append(delta)
            del self.history[: -self.history_len]

        state_parts: List[Any] = []
        for part in self.feature_parts:
            if part == "pc":
                state_parts.append(pc & self.pc_mask)
            elif part == "delta":
                state_parts.append(tuple(self.history))
            else:  # offset
                state_parts.append(offset)
        state = tuple(state_parts)

        row = self.q.get(state)
        if row is None:
            if len(self.q) >= self.q_entries:
                del self.q[next(iter(self.q))]
                self.features.add("pythia:q-evict")
            row = [0.0] * len(self.actions)
            self.q[state] = row
        else:
            self.q[state] = self.q.pop(state)

        if self.rng.randrange(1_000_000) < self.epsilon_cut:
            action = self.rng.randrange(len(self.actions))
            self.features.add("pythia:explore")
        else:
            action = 0
            for index in range(1, len(row)):
                if row[index] > row[action]:
                    action = index
            self.features.add("pythia:exploit")

        decision = self.next_decision
        self.next_decision += 1
        self.ledger[decision] = [row, action, None, None, None]
        if self.previous is not None:
            entry = self.ledger.get(self.previous)
            if entry is not None:
                entry[3] = row
                entry[4] = action
                self._apply(self.previous)
        self.previous = decision

        candidates: List[int] = []
        action_delta = self.actions[action]
        target_offset = offset + action_delta
        if action_delta == 0 or not (
            0 <= target_offset < self.lines_per_page
        ):
            self.features.add("pythia:no-prefetch")
            self._resolve(decision, self.reward_none)
        else:
            target = (page << self.page_shift) + target_offset
            displaced = self.inflight.pop(target, None)
            if displaced is not None:
                self._resolve(displaced[0], self.reward_useless)
            if len(self.inflight) >= self.inflight_entries:
                oldest = next(iter(self.inflight))
                old_decision, _ = self.inflight.pop(oldest)
                self.features.add("pythia:useless")
                self._resolve(old_decision, self.reward_useless)
            self.inflight[target] = (decision, self.tick)
            self.features.add("pythia:issue")
            candidates.append(target)
        self.tick += 1
        return candidates


class CbwsOracle(_OracleBase):
    """Standalone CBWS prefetcher (Algorithm 1 / Figure 8).

    A direct transcription of the paper's algorithm: the current block's
    working set accumulates in a capped first-touch-order vector,
    per-step differentials against the k-th predecessor working set are
    built incrementally, and at BLOCK_END the differential history table
    trains under the pre-shift register tags, the registers shift the
    new differential hashes, and the post-shift tags probe the table for
    predictions (``CBWS[i] + Δ[i]``, deduplicated, order preserved).

    Accesses only register between BLOCK_BEGIN and BLOCK_END; a change
    of static block id flushes the predecessor working sets and the
    shift registers but keeps the history table.  The table's
    random replacement draws from ``random.Random(seed)`` over the keys
    in insertion order — the mirrored contract that makes eviction
    sequences reproducible against the implementation.
    """

    name = "cbws"

    def __init__(
        self,
        max_vector_members: int = 16,
        max_step: int = 4,
        predict_steps: int = 4,
        history_depth: int = 3,
        table_entries: int = 16,
        stride_bits: int = 16,
        hash_bits: int = 12,
        tag_bits: int = 16,
        line_addr_bits: int = 32,
        seed: int = 0xCB35,
    ) -> None:
        super().__init__()
        self.vector = max_vector_members
        self.max_step = max_step
        self.predict_steps = predict_steps
        self.depth = history_depth
        self.entries = table_entries
        self.stride_bits = stride_bits
        self.hash_bits = hash_bits
        self.tag_bits = tag_bits
        self.line_mask = (1 << line_addr_bits) - 1
        self.rng = random.Random(seed)
        self.in_block = False
        self.block_id: Optional[int] = None
        self.current: List[int] = []
        self.overflowed = False
        self.last_blocks: List[Tuple[int, ...]] = []  # newest first
        self.registers: List[List[int]] = [[] for _ in range(max_step)]
        self.diffs: List[List[int]] = [[] for _ in range(max_step)]
        self.table: Dict[int, Tuple[int, ...]] = {}  # order = insertion

    # -- pure helpers (re-derived, not imported) ---------------------------

    def _fold(self, value: int, bits: int) -> int:
        """XOR-fold a non-negative integer down to ``bits`` bits."""
        folded = 0
        low = (1 << bits) - 1
        while value:
            folded ^= value & low
            value >>= bits
        return folded

    def _hash(self, delta: List[int]) -> int:
        """12-bit differential hash; empty maps to the reserved all-ones."""
        if not delta:
            return (1 << self.hash_bits) - 1
        folded = len(delta)
        for position, element in enumerate(delta):
            encoded = element & 0xFFFF
            rotation = (position * 5) % 16
            rotated = ((encoded << rotation) | (encoded >> (16 - rotation))) & 0xFFFFFFFF
            folded ^= rotated
        return self._fold(folded, self.hash_bits)

    def _tag(self, register: List[int]) -> int:
        """Fold a shift register (oldest first) into a table tag."""
        concatenated = 0
        for position, value in enumerate(register):
            concatenated |= value << (position * self.hash_bits)
        concatenated ^= len(register)
        return self._fold(concatenated, self.tag_bits)

    def _insert(self, tag: int, delta: List[int]) -> None:
        key = tag & ((1 << self.tag_bits) - 1)
        if key not in self.table and len(self.table) >= self.entries:
            victim = self.rng.choice(list(self.table.keys()))
            del self.table[victim]
            self.features.add("cbws:table-evict")
        self.table[key] = tuple(delta)

    # -- event protocol ----------------------------------------------------

    def on_block_begin(self, block_id: int) -> None:
        if block_id != self.block_id:
            self.last_blocks = []
            self.registers = [[] for _ in range(self.max_step)]
            self.diffs = [[] for _ in range(self.max_step)]
            self.block_id = block_id
            self.features.add("cbws:block-switch")
        self.current = []
        self.overflowed = False
        self.diffs = [[] for _ in range(self.max_step)]
        self.in_block = True

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        if not self.in_block:
            return []
        truncated = line & self.line_mask
        if truncated in self.current:
            return []
        if len(self.current) >= self.vector:
            self.overflowed = True
            self.features.add("cbws:overflow")
            return []
        index = len(self.current)
        self.current.append(truncated)
        sign = 1 << (self.stride_bits - 1)
        stride_mask = (1 << self.stride_bits) - 1
        for position, predecessor in enumerate(self.last_blocks):
            if index >= len(predecessor):
                continue
            diffs = self.diffs[position]
            if len(diffs) == index:  # element positions stay aligned
                raw = (truncated - predecessor[index]) & stride_mask
                diffs.append((raw ^ sign) - sign)
        return []

    def on_block_end(self, block_id: int) -> List[int]:
        self.in_block = False
        completed = tuple(self.current)

        # Train under the pre-shift tags, then advance each register.
        for step in range(self.max_step):
            delta = self.diffs[step]
            if delta:
                self._insert(self._tag(self.registers[step]), delta)
                self.features.add("cbws:train")
            register = self.registers[step]
            register.append(self._hash(delta))
            if len(register) > self.depth:
                del register[0]

        if completed:
            self.last_blocks.insert(0, completed)
            del self.last_blocks[self.max_step :]

        # Probe with the post-shift tags; CBWS[i] + Δ[i] per hit.
        candidates: List[int] = []
        seen: Set[int] = set()
        for step in range(1, self.predict_steps + 1):
            predicted = self.table.get(self._tag(self.registers[step - 1]))
            if predicted is None:
                continue
            self.features.add("cbws:table-hit")
            for position in range(min(len(completed), len(predicted))):
                line = (completed[position] + predicted[position]) & self.line_mask
                if line not in seen:
                    seen.add(line)
                    candidates.append(line)
        if candidates:
            self.features.add("cbws:predict")

        self.current = []
        self.overflowed = False
        self.diffs = [[] for _ in range(self.max_step)]
        return candidates


class CbwsSmsOracle(_OracleBase):
    """CBWS as an add-on over SMS (deployment mode #2, Section VII).

    SMS trains on everything; CBWS BLOCK_END predictions are claimed in
    a 128-entry FIFO ownership filter, and SMS candidates for owned
    lines are suppressed.
    """

    name = "cbws+sms"
    OWNED_LINES = 128

    def __init__(self) -> None:
        super().__init__()
        self.cbws = CbwsOracle()
        self.sms = SmsOracle()
        self.owned: List[int] = []  # FIFO order; membership via scan is fine

    @property
    def features(self) -> Set[str]:  # type: ignore[override]
        return self.cbws.features | self.sms.features

    @features.setter
    def features(self, value: Set[str]) -> None:
        pass  # component oracles own their feature sets

    def on_block_begin(self, block_id: int) -> None:
        self.cbws.on_block_begin(block_id)

    def on_block_end(self, block_id: int) -> List[int]:
        predicted = self.cbws.on_block_end(block_id)
        for line in predicted:
            if line in self.owned:
                continue
            if len(self.owned) >= self.OWNED_LINES:
                del self.owned[0]
            self.owned.append(line)
        return predicted

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        self.cbws.on_access(pc, line, address, l1_hit)
        candidates = self.sms.on_access(pc, line, address, l1_hit)
        return [cand for cand in candidates if cand not in self.owned]

    def on_l1_eviction(self, line: int) -> None:
        self.sms.on_l1_eviction(line)


class _CacheLevelOracle:
    """One cache level: per-set LRU lists of [line, unused_prefetch]."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: List[List[List[int]]] = [[] for _ in range(num_sets)]

    def _set(self, line: int) -> List[List[int]]:
        return self.sets[line % self.num_sets]

    def find(self, line: int) -> Optional[List[int]]:
        for entry in self._set(line):
            if entry[0] == line:
                return entry
        return None

    def touch(self, line: int) -> bool:
        """Demand reference: clear the prefetch flag and move to MRU."""
        cache_set = self._set(line)
        for position, entry in enumerate(cache_set):
            if entry[0] == line:
                entry[1] = 0
                cache_set.append(cache_set.pop(position))
                return True
        return False

    def insert_demand(self, line: int) -> Optional[List[int]]:
        """Install at MRU; returns the evicted [line, flag] if any."""
        cache_set = self._set(line)
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(0)
        cache_set.append([line, 0])
        return victim

    def insert_prefetch(self, line: int) -> Optional[List[int]]:
        """Install at LRU; returns the evicted [line, flag] if any."""
        cache_set = self._set(line)
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(0)
        cache_set.insert(0, [line, 1])
        return victim

    def remove(self, line: int) -> Optional[List[int]]:
        cache_set = self._set(line)
        for position, entry in enumerate(cache_set):
            if entry[0] == line:
                return cache_set.pop(position)
        return None

    def resident(self) -> List[int]:
        return [entry[0] for cache_set in self.sets for entry in cache_set]


class HierarchyOracle:
    """Golden model of the two-level inclusive hierarchy.

    Semantics (DESIGN.md / Table II): demand accesses probe L1 → L2 →
    memory and fill both levels at MRU; prefetches fill L2 only, at LRU,
    and carry an unused-prefetch flag cleared by the first demand
    reference; an L2 eviction back-invalidates L1 (inclusion).  Outcomes
    are the strings ``"l1"``, ``"l2"``, ``"l2-prefetch"``, ``"memory"``.
    """

    def __init__(
        self,
        l1_sets: int = 16,
        l1_ways: int = 4,
        l2_sets: int = 256,
        l2_ways: int = 8,
    ) -> None:
        self.l1 = _CacheLevelOracle(l1_sets, l1_ways)
        self.l2 = _CacheLevelOracle(l2_sets, l2_ways)
        self.stats = {
            "accesses": 0,
            "l1_misses": 0,
            "l2_misses": 0,
            "prefetch_fills": 0,
            "useful_prefetch_hits": 0,
            "wrong_prefetch_evictions": 0,
        }

    def demand_access(self, line: int) -> Tuple[str, List[int]]:
        """One committed access; returns (outcome, L1-evicted lines)."""
        self.stats["accesses"] += 1
        if self.l1.touch(line):
            self.l2.touch(line)  # keep the hot line recent in L2 too
            return "l1", []

        self.stats["l1_misses"] += 1
        evictions: List[int] = []
        l2_entry = self.l2.find(line)
        if l2_entry is not None:
            was_prefetch = bool(l2_entry[1])
            if was_prefetch:
                self.stats["useful_prefetch_hits"] += 1
            self.l2.touch(line)
            victim = self.l1.insert_demand(line)
            if victim is not None:
                evictions.append(victim[0])
            return ("l2-prefetch" if was_prefetch else "l2"), evictions

        self.stats["l2_misses"] += 1
        l2_victim = self.l2.insert_demand(line)
        if l2_victim is not None:
            if l2_victim[1]:
                self.stats["wrong_prefetch_evictions"] += 1
            back = self.l1.remove(l2_victim[0])
            if back is not None:
                evictions.append(back[0])
        l1_victim = self.l1.insert_demand(line)
        if l1_victim is not None:
            evictions.append(l1_victim[0])
        return "memory", evictions

    def prefetch_fill(self, line: int) -> Tuple[bool, List[int]]:
        """Install a completed prefetch; returns (filled, L1 evictions)."""
        if self.l2.find(line) is not None:
            return False, []
        self.stats["prefetch_fills"] += 1
        evictions: List[int] = []
        l2_victim = self.l2.insert_prefetch(line)
        if l2_victim is not None:
            if l2_victim[1]:
                self.stats["wrong_prefetch_evictions"] += 1
            back = self.l1.remove(l2_victim[0])
            if back is not None:
                evictions.append(back[0])
        return True, evictions


#: Oracle factories, keyed by the registry names of the implementations
#: they model.  These are the ten prefetcher configurations the
#: differential harness verifies.
ORACLE_FACTORIES = {
    "no-prefetch": NoPrefetchOracle,
    "stride": StrideOracle,
    "ghb-pc/dc": lambda: GhbOracle(mode="pc"),
    "ghb-g/dc": lambda: GhbOracle(mode="global"),
    "sms": SmsOracle,
    "markov": MarkovOracle,
    "ampm": AmpmOracle,
    "cbws": CbwsOracle,
    "cbws+sms": CbwsSmsOracle,
    "pangloss": PanglossOracle,
    "pythia": PythiaOracle,
}


def make_oracle(name: str):
    """Build a fresh oracle for a registry prefetcher name."""
    try:
        factory = ORACLE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(ORACLE_FACTORIES))
        raise KeyError(f"no oracle for {name!r}; known: {known}") from None
    return factory()
