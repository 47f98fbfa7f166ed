"""Global history buffer prefetching (Nesbit & Smith, HPCA 2004).

The GHB is a circular FIFO of recent *miss* addresses.  An index table
maps a key to the most recent GHB entry created for that key, and each
entry carries a link pointer to the previous entry with the same key —
walking links recovers the per-key address history even though the buffer
itself is globally ordered.

Two flavours, selected by the key function (Table II evaluates both):

* **G/DC** (global delta correlation): a single global key; the chain is
  simply the global miss stream.
* **PC/DC** (PC-localized delta correlation): key = PC of the missing
  load/store, recovering per-instruction streams.

Prediction uses delta correlation: compute the delta stream of the chain,
take the most recent ``match_length`` deltas as the correlation key, find
its most recent earlier occurrence, and replay the deltas that followed
it (up to ``degree``).  As the paper notes when contrasting with CBWS,
this triggers only on misses and uses a static, conservative depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.common.errors import ConfigError
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import ghb_gdc_storage, ghb_pcdc_storage

#: Sentinel key for the single global chain in G/DC mode.
_GLOBAL_KEY = -1


@dataclass(frozen=True)
class GhbConfig:
    """Geometry of the GHB prefetcher (Table II values as defaults).

    Attributes:
        mode: ``"global"`` for G/DC, ``"pc"`` for PC/DC.
        buffer_entries: GHB FIFO depth (fully associative index table of
            the same order).
        history_length: Table II "History Length" — the correlation key
            uses ``history_length - 1`` deltas (3 addresses span 2 deltas).
        degree: predicted deltas replayed per trigger.
        pc_bits / stride_bits: field widths for storage accounting.
    """

    mode: Literal["global", "pc"] = "pc"
    buffer_entries: int = 256
    history_length: int = 3
    degree: int = 3
    pc_bits: int = 48
    stride_bits: int = 12

    def __post_init__(self) -> None:
        if self.mode not in ("global", "pc"):
            raise ConfigError(f"ghb: unknown mode {self.mode!r}")
        if self.buffer_entries <= 0:
            raise ConfigError("ghb: buffer must have at least one entry")
        if self.history_length < 2:
            raise ConfigError("ghb: history length must be at least 2")
        if self.degree <= 0:
            raise ConfigError("ghb: degree must be positive")

    @property
    def match_length(self) -> int:
        """Deltas compared when searching the history."""
        return self.history_length - 1


class GlobalHistoryBuffer:
    """The circular miss-address FIFO plus per-key link pointers.

    Entries are addressed by a monotonically increasing serial number;
    an entry is still live while ``serial > newest_serial - capacity``.
    Stale link pointers (to overwritten entries) terminate chain walks,
    exactly as pointer invalidation does in the hardware structure.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("GHB capacity must be positive")
        self.capacity = capacity
        self._lines: list[int] = [0] * capacity
        self._links: list[int] = [-1] * capacity
        self._serials: list[int] = [-1] * capacity
        self._next_serial = 0
        self._head: dict[int, int] = {}  # key -> serial of newest entry

    def push(self, key: int, line: int) -> None:
        """Append a miss for ``key``, linking it to the key's last entry."""
        serial = self._next_serial
        slot = serial % self.capacity
        self._lines[slot] = line
        self._links[slot] = self._head.get(key, -1)
        self._serials[slot] = serial
        self._head[key] = serial
        self._next_serial = serial + 1

    def chain(self, key: int, max_length: int) -> list[int]:
        """Lines for ``key``, newest first, following live link pointers."""
        out: list[int] = []
        serial = self._head.get(key, -1)
        oldest_live = self._next_serial - self.capacity
        while serial >= 0 and serial >= oldest_live and len(out) < max_length:
            slot = serial % self.capacity
            if self._serials[slot] != serial:
                break  # entry overwritten; pointer is stale
            out.append(self._lines[slot])
            serial = self._links[slot]
        return out

    def __len__(self) -> int:
        return min(self._next_serial, self.capacity)

    def clear(self) -> None:
        """Reset to the empty state."""
        self._links = [-1] * self.capacity
        self._serials = [-1] * self.capacity
        self._next_serial = 0
        self._head.clear()


class _KeyHistory:
    """Incremental per-key delta-correlation state (see
    :meth:`GhbPrefetcher._predict_incremental`).

    ``serials``/``addresses``/``deltas`` mirror the key's full push
    history; entries are addressed by *absolute* index (``offset`` maps
    absolute to physical after pruning).  ``windows`` maps each
    ``match_length``-delta window tuple to the largest absolute start
    position at which it has occurred while live.  ``live_start`` is the
    absolute index of the oldest address still resident in the GHB.
    """

    __slots__ = ("serials", "addresses", "deltas", "windows", "offset", "live_start")

    def __init__(self) -> None:
        self.serials: list[int] = []
        self.addresses: list[int] = []
        self.deltas: list[int] = []
        self.windows: dict[tuple[int, ...], int] = {}
        self.offset = 0
        self.live_start = 0


class GhbPrefetcher(Prefetcher):
    """GHB G/DC or PC/DC, selected by :attr:`GhbConfig.mode`."""

    def __init__(self, config: GhbConfig | None = None) -> None:
        self.config = config or GhbConfig()
        self.name = "ghb-g/dc" if self.config.mode == "global" else "ghb-pc/dc"
        self.buffer = GlobalHistoryBuffer(self.config.buffer_entries)
        self._histories: dict[int, _KeyHistory] = {}
        self._match_length = self.config.match_length
        self._degree = self.config.degree

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> list[int]:
        if l1_hit:
            return []  # the GHB records cache misses only
        key = _GLOBAL_KEY if self.config.mode == "global" else pc
        self.buffer.push(key, line)
        return self._predict_incremental(key, line)

    def _predict_incremental(self, key: int, line: int) -> list[int]:
        """O(match_length) replacement for the :meth:`_predict` walk.

        The naive walk re-derives the key's chain and linearly scans its
        delta stream on every miss — O(capacity) per trigger.  This
        method keeps the chain materialized incrementally and finds "the
        most recent earlier occurrence of the match window" with one
        dict lookup.  Correctness argument (pinned by the equivalence
        test against :meth:`_predict`):

        * A delta at absolute position ``p`` is in the naive live chain
          iff the address opening it is still GHB-resident, i.e. iff
          ``p >= live_start`` — chain walks stop at the first dead link,
          and serials decrease along the chain, so liveness is a suffix.
        * ``windows`` stores, per window tuple, the *maximum* start
          position inserted so far; positions only grow, so a stored
          maximum below ``live_start`` proves no live occurrence exists,
          while one at or above it is exactly the naive scan's hit
          (newest-first scan == maximum live position).
        * Windows are inserted after the query, so the stored maximum is
          always at most ``n - match_length - 1`` — the naive
          ``search_end`` that excludes the match window itself.
        """
        buffer = self.buffer
        hist = self._histories.get(key)
        if hist is None:
            hist = _KeyHistory()
            self._histories[key] = hist
        serials = hist.serials
        addresses = hist.addresses
        deltas = hist.deltas
        offset = hist.offset
        if addresses:
            deltas.append(line - addresses[-1])
        serials.append(buffer._next_serial - 1)
        addresses.append(line)
        n = offset + len(addresses) - 1  # absolute index of this address

        # Advance the liveness frontier: the newest entry is always
        # live, so the walk terminates.
        oldest_live = buffer._next_serial - buffer.capacity
        live_start = hist.live_start
        while serials[live_start - offset] < oldest_live:
            live_start += 1
        hist.live_start = live_start

        ml = self._match_length
        match_start = n - ml  # absolute start of the just-completed window
        result: list[int] = []
        if n + 1 - live_start >= ml + 2:
            match = tuple(deltas[match_start - offset:])
            position = hist.windows.get(match, -1)
            if position >= live_start:
                start = position + ml - offset
                base = line
                for delta in deltas[start : start + self._degree]:
                    base += delta
                    result.append(base)
        if match_start >= live_start:
            hist.windows[tuple(deltas[match_start - offset:])] = match_start

        # Prune dead history so per-key state stays O(capacity).
        if len(addresses) > 2 * buffer.capacity:
            cut = live_start - offset
            if cut > 0:
                del addresses[:cut]
                del serials[:cut]
                del deltas[:cut]
                hist.offset = live_start
                windows = hist.windows
                for window in [w for w, p in windows.items() if p < live_start]:
                    del windows[window]
        return result

    def _predict(self, key: int) -> list[int]:
        """Reference delta-correlation walk (O(capacity) per trigger).

        Kept as the readable specification; :meth:`_predict_incremental`
        must produce identical candidates (pinned by tests).
        """
        config = self.config
        newest_first = self.buffer.chain(key, config.buffer_entries)
        if len(newest_first) < config.match_length + 2:
            return []
        # Time-ascending addresses and their delta stream.
        addresses = newest_first[::-1]
        deltas = [
            addresses[i + 1] - addresses[i] for i in range(len(addresses) - 1)
        ]
        match = deltas[-config.match_length :]
        # Find the most recent earlier occurrence of the match window
        # (the canonical delta-correlation walk).  Only the deltas
        # between the match and the head are replayed, so a constant
        # stream yields a short replay — the "static, conservative
        # configuration" the paper contrasts CBWS against.
        search_end = len(deltas) - config.match_length - 1
        for position in range(search_end, -1, -1):
            if deltas[position : position + config.match_length] == match:
                predicted = deltas[
                    position + config.match_length :
                    position + config.match_length + config.degree
                ]
                base = addresses[-1]
                candidates = []
                for delta in predicted:
                    base += delta
                    candidates.append(base)
                return candidates
        return []

    def storage_bits(self) -> int:
        if self.config.mode == "global":
            return ghb_gdc_storage(self.config).bits
        return ghb_pcdc_storage(self.config).bits
