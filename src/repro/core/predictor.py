"""Algorithm 1: differential CBWS prediction.

The predictor receives the three hardware events — ``BLOCK_BEGIN``,
``MEMORY_ACCESS`` (for accesses committed inside a block) and
``BLOCK_END`` — and maintains the Figure 8 structures:

* on ``BLOCK_BEGIN`` the current-CBWS tracing is reset;
* on each ``MEMORY_ACCESS`` the line is pushed into the current CBWS and
  the k-step differential entries are generated *incrementally* against
  the k-th predecessor CBWS ("the history differentials are generated
  progressively with each memory access, so the predictor requires only
  4 adders");
* on ``BLOCK_END`` the differential history table is trained with the
  completed differentials (keyed by the pre-update shift-register tags),
  the shift registers advance, the completed CBWS becomes predecessor #1,
  and the table is probed for the differentials that predict the next
  blocks — the sum ``CBWS + Δ`` is the predicted working set (Figure 7).

There is no shift-register object: each step's register is a tuple of
hashed differentials held by the predictor, and its table tag is
computed once per BLOCK_END, right after the shift.  That one tag is
both this block's prediction probe and the next block's training key.

The predictor never sees a cache outcome, so its output depends only on
the trace and the :class:`CbwsConfig`.  :func:`predict_trace` therefore
runs it once over a whole trace and records every BLOCK_END's output as
one :class:`PredictionStream`, which the CBWS prefetchers replay; the
last stream built is kept, so a second CBWS-family simulation of the
same trace replays it without running Algorithm 1 again.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.bitops import mask
from repro.common.constants import (
    CBWS_HASH_BITS,
    CBWS_LINE_ADDR_BITS,
    CBWS_STRIDE_BITS,
)
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.core.buffers import CurrentCbwsBuffer, LastBlocksBuffer
from repro.core.history import (
    DifferentialHistoryTable,
    hash_differential,
    history_tag,
)
from repro.trace.events import BLOCK_BEGIN, MEMORY_ACCESS

if TYPE_CHECKING:
    from repro.trace.stream import Trace


@dataclass(frozen=True)
class CbwsConfig:
    """CBWS prefetcher geometry (Table II values as defaults).

    Attributes:
        max_vector_members: CBWS buffer depth (16 lines; Section IV-A
            reports 16 lines cover >98 % of dynamic blocks).
        max_step: predecessor CBWSs kept, and differential steps computed.
        predict_steps: how many future blocks are predicted at BLOCK_END.
            The default uses all ``max_step`` differential registers —
            the multi-step lookahead Section IV-C introduces to mitigate
            the BLOCK_END timing constraint.
        history_depth: shift-register depth (3-deep differential history).
        table_entries: differential history table capacity.
        stride_bits / hash_bits / tag_bits / line_addr_bits: field widths.
        seed: RNG seed for the table's random replacement.
    """

    max_vector_members: int = 16
    max_step: int = 4
    predict_steps: int = 4
    history_depth: int = 3
    table_entries: int = 16
    stride_bits: int = CBWS_STRIDE_BITS
    hash_bits: int = CBWS_HASH_BITS
    tag_bits: int = 16
    line_addr_bits: int = CBWS_LINE_ADDR_BITS
    seed: int = 0xCB35

    def __post_init__(self) -> None:
        if self.max_step <= 0:
            raise ConfigError("cbws: max_step must be positive")
        if not 1 <= self.predict_steps <= self.max_step:
            raise ConfigError(
                f"cbws: predict_steps {self.predict_steps} outside "
                f"[1, max_step={self.max_step}]"
            )
        if self.max_vector_members <= 0:
            raise ConfigError("cbws: vector capacity must be positive")
        if self.history_depth <= 0:
            raise ConfigError("cbws: history_depth must be positive")
        if not 0 < self.line_addr_bits <= 64:
            raise ConfigError("cbws: line_addr_bits outside [1, 64]")


@dataclass
class PredictorStats:
    """Observable behaviour of the predictor, used by tests and reports."""

    blocks_completed: int = 0
    blocks_overflowed: int = 0
    predictions_made: int = 0
    lines_predicted: int = 0
    table_lookups: int = 0
    table_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """History-table hit rate over prediction lookups."""
        if self.table_lookups == 0:
            return 0.0
        return self.table_hits / self.table_lookups


class CbwsPredictor:
    """The CBWS differential predictor of Algorithm 1.

    Per step the shift register is a tuple of hashed differentials
    (oldest first) and ``_tags`` holds its table tag, written once per
    BLOCK_END: the post-shift probe tag of one block is the training tag
    of the next.  Two last-value shortcuts keep the steady state of a
    regular loop cheap without any memo that grows with the trace: a
    step whose differential equals its previous one reuses that hash,
    and a register left unchanged by the shift (already full of that
    same hash) keeps its tag.  They only pay off for loops whose
    differentials repeat block after block; DESIGN.md §9 gives their hit
    rates and gain per workload.
    """

    def __init__(self, config: CbwsConfig | None = None) -> None:
        self.config = config or CbwsConfig()
        config = self.config
        self.current = CurrentCbwsBuffer(
            config.max_vector_members, config.line_addr_bits
        )
        self.last_blocks = LastBlocksBuffer(config.max_step)
        self.table = DifferentialHistoryTable(
            config.table_entries,
            config.tag_bits,
            DeterministicRng(config.seed),
        )
        self.stats = PredictorStats()
        self._current_diffs: list[list[int]] = [[] for _ in range(config.max_step)]
        self._block_id: int | None = None
        self._line_mask = mask(config.line_addr_bits)
        # Precomputed truncate/sign-extend constants for the per-access
        # differential: sign_extend(bit_select(raw, b), b) is equivalent
        # to ((raw & mask) ^ sign_bit) - sign_bit, with no calls.
        self._stride_mask = mask(config.stride_bits)
        self._stride_sign = 1 << (config.stride_bits - 1)
        self._empty_tag = history_tag((), config.hash_bits, config.tag_bits)
        self._registers: list[tuple[int, ...]] = []
        self._tags: list[int] = []
        self._clear_history()
        # Last-value shortcuts, one slot per step (pure-function memos of
        # bounded size, so they survive history flushes).
        empty_hash = hash_differential((), config.hash_bits)
        self._last_deltas: list[tuple[int, ...]] = [()] * config.max_step
        self._last_hashes: list[int] = [empty_hash] * config.max_step
        #: Whether the most recent BLOCK_END produced at least one
        #: table-hit prediction; the hybrid policy keys off this.
        self.confident = False
        #: Whether the most recent completed block overflowed the CBWS
        #: buffer (more distinct lines than fit).  An overflowed block's
        #: prediction covers only a prefix of the working set, so the
        #: hybrid must not let it silence SMS (the bzip2 case).
        self.last_block_overflowed = False

    def _clear_history(self) -> None:
        """Empty every shift register (their tags become the empty tag)."""
        steps = self.config.max_step
        self._registers = [()] * steps
        self._tags = [self._empty_tag] * steps

    def _clear_block(self) -> None:
        """Drop the current block's working set and differentials."""
        self.current.clear()
        for diffs in self._current_diffs:
            diffs.clear()

    # -- event protocol ----------------------------------------------------

    def block_begin(self, block_id: int) -> None:
        """BLOCK_BEGIN(id): reset per-block tracing.

        A change of static block id means a different loop is now
        executing; predecessor CBWSs and shift registers of the old loop
        are meaningless for it, so the cross-block history is flushed
        (the hardware holds a single context, Section V-A).
        """
        if block_id != self._block_id:
            self.last_blocks.clear()
            self._clear_history()
            self._block_id = block_id
            self.confident = False
        current = self.current
        if current.lines or current.overflowed:
            self._clear_block()

    def memory_access(self, line: int) -> None:
        """A load/store committed inside the current block."""
        current = self.current
        index = current.push(line)
        if index is None:
            return  # repeated line, or the 16-entry buffer is full
        truncated = current.lines[index]
        stride_mask = self._stride_mask
        stride_sign = self._stride_sign
        # Predecessor k (1-based step) pairs with the step-k differential;
        # missing predecessors simply end the iteration.  Lines arrive at
        # consecutive indices, so each differential stays aligned with the
        # working set and stops at the shorter of the two vectors.
        for diffs, predecessor in zip(self._current_diffs,
                                      self.last_blocks._blocks):
            if index < len(predecessor):
                raw = (truncated - predecessor[index]) & stride_mask
                diffs.append((raw ^ stride_sign) - stride_sign)

    def block_end(self) -> list[int]:
        """BLOCK_END: train, rotate history, and predict future CBWSs.

        Returns the list of predicted lines for the next
        ``predict_steps`` block instances (duplicates removed, order
        preserved).  Empty when no shift-register tag hits the table —
        the standalone prefetcher stays silent in that case.
        """
        config = self.config
        current = self.current
        completed = tuple(current.lines)
        stats = self.stats
        stats.blocks_completed += 1
        overflowed = current.overflowed
        self.last_block_overflowed = overflowed
        if overflowed:
            stats.blocks_overflowed += 1

        # 1. Train: store each completed differential under the tag of the
        #    *pre-update* history, then shift its hash in and re-tag.
        table = self.table
        registers = self._registers
        tags = self._tags
        last_deltas = self._last_deltas
        last_hashes = self._last_hashes
        depth = config.history_depth
        for step, diffs in enumerate(self._current_diffs):
            delta = tuple(diffs)
            diffs.clear()
            if delta:
                table.insert(tags[step], delta)
            if delta == last_deltas[step]:
                hashed = last_hashes[step]
            else:
                hashed = hash_differential(delta, config.hash_bits)
                last_deltas[step] = delta
                last_hashes[step] = hashed
            register = registers[step]
            shifted = (register + (hashed,))[-depth:]
            if shifted != register:
                registers[step] = shifted
                tags[step] = history_tag(shifted, config.hash_bits,
                                         config.tag_bits)

        # 2. Rotate: the completed CBWS becomes predecessor #1.
        if completed:
            self.last_blocks.push(completed)

        # 3. Predict the next blocks with the updated history tags.  A
        #    k-step differential already spans k block instances, so
        #    base + delta predicts the CBWS k blocks ahead (Figure 7).
        line_mask = self._line_mask
        predict_steps = config.predict_steps
        candidates: list[int] = []
        hits = 0
        for tag in tags[:predict_steps]:
            predicted = table.lookup(tag)
            if predicted is not None:
                hits += 1
                candidates += [(base + delta) & line_mask
                               for base, delta in zip(completed, predicted)]
        stats.table_lookups += predict_steps
        self.confident = hits > 0
        if hits:
            stats.table_hits += hits
            if candidates:
                candidates = list(dict.fromkeys(candidates))
                stats.predictions_made += 1
                stats.lines_predicted += len(candidates)

        # 4. Reset per-block tracing for safety (BLOCK_BEGIN does it too);
        #    the differentials were cleared as they were consumed.
        current.clear()
        return candidates

    def reset(self) -> None:
        """Drop every piece of learned state."""
        self._clear_block()
        self.last_blocks.clear()
        self._clear_history()
        self.table.clear()
        self.stats = PredictorStats()
        self._block_id = None
        self.confident = False
        self.last_block_overflowed = False


@dataclass(frozen=True, eq=False)
class PredictionStream:
    """Every BLOCK_END's predicted lines of one trace, laid end to end.

    Attributes:
        lines: the predicted lines of every BLOCK_END, in trace order
            (4-byte items when the config's line fields are 32 bits).
        ends: block offsets into ``lines``: the ``i``-th BLOCK_END
            predicted ``lines[ends[i]:ends[i + 1]]`` (``ends[0]`` is 0).
        predictor: the predictor after the whole trace (its stats,
            history table and last blocks); shared, so read it only.
    """

    lines: array
    ends: array
    predictor: CbwsPredictor

    def __len__(self) -> int:
        """Number of BLOCK_ENDs in the trace."""
        return len(self.ends) - 1

    def block(self, index: int) -> list[int]:
        """The lines predicted at the ``index``-th BLOCK_END."""
        ends = self.ends
        return self.lines[ends[index]:ends[index + 1]].tolist()


def _drive(predictor: CbwsPredictor, kinds: array, payloads: array,
           line_shift: int) -> PredictionStream:
    """Run ``predictor`` over the ``kinds``/``payloads`` event columns.

    A BLOCK_BEGIN opens a block and a BLOCK_END closes it; an access is
    pushed only while a block is open (the CBWS hardware does not see
    the others).
    """
    # Lines are truncated to line_addr_bits, so 32-bit fields fit 4-byte
    # items; this halves the kept stream at the paper's geometry.
    lines = array("I" if predictor.config.line_addr_bits <= 32 else "Q")
    ends = array("Q", [0])
    block_begin = predictor.block_begin
    memory_access = predictor.memory_access
    block_end = predictor.block_end
    in_block = False
    for kind, payload in zip(kinds, payloads):
        if kind == MEMORY_ACCESS:
            if in_block:
                memory_access(payload >> line_shift)
        elif kind == BLOCK_BEGIN:
            block_begin(payload)
            in_block = True
        else:
            lines.extend(block_end())
            ends.append(len(lines))
            in_block = False
    return PredictionStream(lines, ends, predictor)


#: The last stream built, as (weak references to the kinds and payloads
#: columns it was built from, key, stream).  One entry: a grid runs a
#: trace's cells together, and the weak references never keep a trace's
#: columns alive.
_last_stream: tuple | None = None


def _forget(reference: weakref.ref) -> None:
    """Drop the kept stream once its columns are collected."""
    global _last_stream
    kept = _last_stream
    if kept is not None and reference in kept[:2]:
        _last_stream = None


def predict_trace(
    trace: Trace,
    config: CbwsConfig,
    line_shift: int,
    predictor_type: type[CbwsPredictor] = CbwsPredictor,
) -> PredictionStream:
    """The predictions a fresh ``predictor_type(config)`` makes over
    ``trace`` at ``2 ** line_shift``-byte lines.

    The result for the most recent (trace columns, config, line size,
    predictor type) is kept and returned again while those columns are
    alive.
    """
    global _last_stream
    columns = trace.columns()
    kinds, payloads = columns.kinds, columns.payloads
    key = (predictor_type, config, line_shift)
    kept = _last_stream
    if (kept is not None and kept[0]() is kinds and kept[1]() is payloads
            and kept[2] == key):
        return kept[3]
    stream = _drive(predictor_type(config), kinds, payloads, line_shift)
    _last_stream = (weakref.ref(kinds, _forget),
                    weakref.ref(payloads, _forget), key, stream)
    return stream
