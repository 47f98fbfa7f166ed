"""Pythia-style tabular online-RL prefetcher.

Pythia (arXiv 2109.12021) frames prefetching as reinforcement learning:
the state is a program feature vector, the actions are prefetch deltas
(including "don't prefetch"), and the reward arrives from the fate of
the issued prefetch — accurate-and-timely, accurate-but-late, or never
used.  This reproduction keeps the tabular core and threads the reward
signal entirely through the hook protocol the engine already provides:
the prefetcher shadow-tracks its own predictions in ``on_access`` and
classifies them by age when (or whether) a demand touches them, so no
engine changes — and no engine-specific feedback callbacks — are
needed, which is what keeps the fast path and the engine oracle
bit-identical.

The exact machine (the clean-room oracle in :mod:`repro.check.oracles`
is transcribed from this spec, not from this code):

* **Clock** — ``tick`` counts *decisions* (one per L1 miss); prefetch
  ages are measured in decision ticks.
* **State** — built from :attr:`PythiaConfig.feature_set`, a ``+``-
  joined subset of ``pc`` (low :attr:`PythiaConfig.pc_bits` bits),
  ``delta`` (the last :attr:`PythiaConfig.history_len` non-zero in-page
  deltas, oldest first), and ``offset`` (line offset within its page).
  Per-page last offsets live in an LRU tracker of
  :attr:`PythiaConfig.page_entries` pages.
* **Q-table** — an LRU map ``state -> float64 Q-row`` (one value per
  action, initialised to 0.0) of :attr:`PythiaConfig.q_entries` states.
  Rows evicted from the table keep receiving their pending SARSA
  updates (the ledger holds the row object), they are simply no longer
  reachable for new decisions.
* **Action selection** — epsilon-greedy over
  :attr:`PythiaConfig.actions`.  Each decision first draws
  ``index(1_000_000)`` from the named stream ``"pythia.explore"``
  (:func:`repro.common.rng.named_stream` with
  :attr:`PythiaConfig.seed`); if the draw falls below
  ``round(epsilon * 1_000_000)`` a second draw ``index(len(actions))``
  picks the action uniformly, otherwise the argmax of the Q-row wins
  (first index on ties).
* **Acting** — a non-zero action delta issues one candidate at
  ``offset + delta`` when that stays inside the page; the candidate is
  recorded in a shadow table ``line -> (decision, issue_tick)`` bounded
  to :attr:`PythiaConfig.inflight_entries` (capacity evictions and
  overwritten lines resolve the displaced decision as useless).  A zero
  delta or an out-of-page target issues nothing and resolves
  immediately with :attr:`PythiaConfig.reward_none`.
* **Reward** — on every access (hit or miss, before anything else) a
  demand touch on a shadow-tracked line pops it and resolves its
  decision: :attr:`PythiaConfig.reward_timely` when its age is at least
  :attr:`PythiaConfig.timely_age` ticks (the prefetch had lead time),
  else :attr:`PythiaConfig.reward_late`.  At each decision point,
  tracked lines older than :attr:`PythiaConfig.useless_age` are popped
  oldest-first and resolved with :attr:`PythiaConfig.reward_useless`.
* **Learning** — SARSA.  Every decision enters a ledger; decision *n*
  learns its successor pair when decision *n+1* is made.  The moment a
  ledger entry has both its reward and its successor, the update
  ``Q[s, a] += alpha * (r + gamma * Q[s', a'] - Q[s, a])`` applies (in
  float64, exactly this expression shape) and the entry leaves the
  ledger.  When one access resolves several entries, they apply in
  ledger (decision) order.

Determinism: the only stochastic site is the named stream, which both
the implementation and the oracle construct independently and drain in
the same order; float updates use one fixed expression, so Q-values
are bit-identical run-to-run and side-to-side.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import named_stream
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.storage import pythia_storage

#: Feature names accepted in :attr:`PythiaConfig.feature_set`.
FEATURE_NAMES = ("pc", "delta", "offset")

#: Resolution of the epsilon-greedy draw.
EPSILON_SCALE = 1_000_000


@dataclass(frozen=True)
class PythiaConfig:
    """Geometry and learning parameters of the Pythia prefetcher.

    Attributes:
        feature_set: ``+``-joined state features, drawn from ``pc``,
            ``delta``, ``offset`` (e.g. ``"pc+delta"``).
        history_len: delta-history depth inside the state.
        actions: the prefetch-delta action space; must contain 0 (the
            "don't prefetch" action).  The default is Pythia's 16-entry
            list.
        alpha / gamma / epsilon: SARSA learning rate, discount, and
            exploration rate (paper defaults).
        q_entries: Q-table capacity (fully assoc., LRU).
        page_entries: per-page last-offset tracker capacity.
        inflight_entries: shadow-tracked outstanding predictions.
        timely_age: minimum age (decision ticks) for a demand-touched
            prefetch to count as timely rather than late.
        useless_age: age past which an untouched prefetch resolves as
            useless.
        reward_timely / reward_late / reward_useless / reward_none:
            the scalar reward levels.
        lines_per_page: page size in cache lines (power of two).
        pc_bits: PC feature width.
        seed: seed of the ``"pythia.explore"`` named stream.
        tag_bits / q_value_bits: stored field widths, for storage
            accounting only.
    """

    feature_set: str = "pc+delta"
    history_len: int = 2
    actions: Tuple[int, ...] = (
        -6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32,
    )
    alpha: float = 0.0065
    gamma: float = 0.556
    epsilon: float = 0.002
    q_entries: int = 4096
    page_entries: int = 64
    inflight_entries: int = 64
    timely_age: int = 12
    useless_age: int = 256
    reward_timely: int = 20
    reward_late: int = 12
    reward_useless: int = -14
    reward_none: int = -2
    lines_per_page: int = 64
    pc_bits: int = 10
    seed: int = 0
    tag_bits: int = 16
    q_value_bits: int = 16

    def __post_init__(self) -> None:
        parts = self.feature_set.split("+")
        if not parts or any(part not in FEATURE_NAMES for part in parts) \
                or len(set(parts)) != len(parts):
            raise ConfigError(
                f"pythia: feature_set must be a +-joined subset of "
                f"{'/'.join(FEATURE_NAMES)}, got {self.feature_set!r}"
            )
        if not self.actions or len(set(self.actions)) != len(self.actions):
            raise ConfigError("pythia: actions must be non-empty and unique")
        if 0 not in self.actions:
            raise ConfigError(
                "pythia: actions must include 0 (the no-prefetch action)"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"pythia: alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"pythia: gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(
                f"pythia: epsilon must be in [0, 1], got {self.epsilon}"
            )
        for name in ("history_len", "q_entries", "page_entries",
                     "inflight_entries", "timely_age", "useless_age"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"pythia: {name} must be positive")
        if self.lines_per_page < 2 or (
            self.lines_per_page & (self.lines_per_page - 1)
        ):
            raise ConfigError(
                "pythia: lines_per_page must be a power of two >= 2, "
                f"got {self.lines_per_page}"
            )


class PythiaPrefetcher(Prefetcher):
    """Tabular SARSA over prefetch deltas with shadow-tracked rewards."""

    name = "pythia"

    def __init__(self, config: PythiaConfig | None = None) -> None:
        self.config = config or PythiaConfig()
        self._features = tuple(self.config.feature_set.split("+"))
        self._page_shift = self.config.lines_per_page.bit_length() - 1
        self._offset_mask = self.config.lines_per_page - 1
        self._pc_mask = (1 << self.config.pc_bits) - 1
        self._epsilon_cut = int(round(self.config.epsilon * EPSILON_SCALE))
        self._stream = named_stream("pythia.explore", self.config.seed)
        self._tick = 0
        self._next_decision = 0
        self._history: List[int] = []
        self._pages: OrderedDict[int, int] = OrderedDict()  # page -> offset
        self._q: OrderedDict[tuple, List[float]] = OrderedDict()
        # line -> (decision id, issue tick); insertion order = issue order.
        self._inflight: OrderedDict[int, Tuple[int, int]] = OrderedDict()
        # decision id -> [row, action, reward, next_row, next_action].
        self._ledger: OrderedDict[int, list] = OrderedDict()
        self._previous_decision: int | None = None

    # -- the SARSA ledger ----------------------------------------------------

    def _maybe_apply(self, decision: int) -> None:
        entry = self._ledger.get(decision)
        if entry is None or entry[2] is None or entry[3] is None:
            return
        row, action, reward, next_row, next_action = entry
        q = row[action]
        row[action] = q + self.config.alpha * (
            reward + self.config.gamma * next_row[next_action] - q
        )
        del self._ledger[decision]

    def _resolve(self, decision: int, reward: int) -> None:
        entry = self._ledger.get(decision)
        if entry is None:
            return
        entry[2] = reward
        self._maybe_apply(decision)

    def _link_successor(self, row: List[float], action: int) -> None:
        if self._previous_decision is None:
            return
        entry = self._ledger.get(self._previous_decision)
        if entry is not None:
            entry[3] = row
            entry[4] = action
            self._maybe_apply(self._previous_decision)

    # -- event protocol ------------------------------------------------------

    def on_access(self, pc: int, line: int, address: int,
                  l1_hit: bool) -> List[int]:
        # 1. Demand feedback: a touch on a tracked line resolves it.
        record = self._inflight.pop(line, None)
        if record is not None:
            decision, issue_tick = record
            age = self._tick - issue_tick
            self._resolve(
                decision,
                self.config.reward_timely if age >= self.config.timely_age
                else self.config.reward_late,
            )
        if l1_hit:
            return []  # decisions ride the miss stream only

        # 2. Expire stale predictions, oldest first, in ledger order.
        while self._inflight:
            stale, (decision, issue_tick) = next(iter(self._inflight.items()))
            if self._tick - issue_tick <= self.config.useless_age:
                break
            del self._inflight[stale]
            self._resolve(decision, self.config.reward_useless)

        # 3. Build the state.
        page = line >> self._page_shift
        offset = line & self._offset_mask
        last_offset = self._pages.get(page)
        if last_offset is None:
            if len(self._pages) >= self.config.page_entries:
                self._pages.popitem(last=False)
        else:
            self._pages.move_to_end(page)
        self._pages[page] = offset
        delta = 0 if last_offset is None else offset - last_offset
        if delta != 0:
            self._history.append(delta)
            del self._history[: -self.config.history_len]
        state = self._state_key(pc, offset)

        # 4. Q-row lookup (LRU).
        row = self._q.get(state)
        if row is None:
            if len(self._q) >= self.config.q_entries:
                self._q.popitem(last=False)
            row = [0.0] * len(self.config.actions)
            self._q[state] = row
        else:
            self._q.move_to_end(state)

        # 5. Epsilon-greedy action selection.
        if self._stream.index(EPSILON_SCALE) < self._epsilon_cut:
            action = self._stream.index(len(self.config.actions))
        else:
            action = 0
            for index in range(1, len(row)):
                if row[index] > row[action]:
                    action = index

        # 6. Enter the ledger; the previous decision learns its successor.
        decision = self._next_decision
        self._next_decision += 1
        self._ledger[decision] = [row, action, None, None, None]
        self._link_successor(row, action)
        self._previous_decision = decision

        # 7. Act.
        candidates: List[int] = []
        action_delta = self.config.actions[action]
        target_offset = offset + action_delta
        if action_delta == 0 or not (
            0 <= target_offset < self.config.lines_per_page
        ):
            self._resolve(decision, self.config.reward_none)
        else:
            target = (page << self._page_shift) + target_offset
            displaced = self._inflight.pop(target, None)
            if displaced is not None:
                self._resolve(displaced[0], self.config.reward_useless)
            if len(self._inflight) >= self.config.inflight_entries:
                _, (old_decision, _) = self._inflight.popitem(last=False)
                self._resolve(old_decision, self.config.reward_useless)
            self._inflight[target] = (decision, self._tick)
            candidates.append(target)
        self._tick += 1
        return candidates

    def _state_key(self, pc: int, offset: int) -> tuple:
        parts: List[object] = []
        for feature in self._features:
            if feature == "pc":
                parts.append(pc & self._pc_mask)
            elif feature == "delta":
                parts.append(tuple(self._history))
            else:  # offset
                parts.append(offset)
        return tuple(parts)

    def storage_bits(self) -> int:
        return pythia_storage(self.config).bits

    # -- inspection ----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Shadow-tracked predictions not yet resolved, for tests."""
        return len(self._inflight)
