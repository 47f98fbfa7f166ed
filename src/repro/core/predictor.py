"""Algorithm 1: differential CBWS prediction.

The predictor follows the three hardware events — ``BLOCK_BEGIN``,
``MEMORY_ACCESS`` (for accesses committed inside a block) and
``BLOCK_END`` — over the Figure 8 structures:

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

The pass is one loop over the trace's ``kinds``/``payloads`` columns
(:func:`_drive`), the only copy of Algorithm 1's per-event logic: the
predictor's structures are read into locals on entry and written back
on exit, so no event costs a method call.  Two per-run memos stand in
for the hash and the register shift: one maps a differential tuple to
its hash, the other maps ``(register, hash)`` to the shifted register
and its tag.  Each holds at most :data:`MEMO_ENTRIES` entries and is
emptied when full, so a pass's memory stays bounded on traces whose
differentials never repeat.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
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
from repro.core.history import hash_differential, history_tag
from repro.trace.events import BLOCK_BEGIN, MEMORY_ACCESS

if TYPE_CHECKING:
    from repro.trace.stream import Trace

#: Capacity of each per-run memo of :func:`_drive`.  A memo that reaches
#: it is emptied, so a pass's extra memory is bounded on any trace.
MEMO_ENTRIES = 512


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
        if self.table_entries < 1:
            raise ConfigError("cbws: table_entries must be positive")
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
    """The registers of the CBWS differential predictor (Figure 8), as
    plain fields; :func:`predict_trace` runs Algorithm 1 over them.

    * ``lines`` is the current-CBWS FIFO in first-touch order and
      ``members`` the same lines for the repeat test; lines are
      truncated by ``addr_mask`` (the 32-bit fields of Figure 8), at
      most ``capacity`` are kept, and ``overflowed`` is set when the
      block touches more distinct lines than that.
    * ``last_blocks`` holds the predecessor CBWSs (``last_blocks[k - 1]``
      is the block ``k`` completions back).
    * Per step ``k``, ``diffs[k - 1]`` is the differential being built
      against predecessor ``k``, ``registers[k - 1]`` the shift register
      as a tuple of hashed differentials (oldest first) and
      ``tags[k - 1]`` its table tag: the post-shift probe tag of one
      block is the training tag of the next.
    * ``table`` is the differential history table, tag -> differential
      in insertion order; when a new tag finds it full, the victim is
      ``rng.choice(list(table))`` (Table II: random replacement).
    * ``block_id`` is the static id of the block being traced.
    * ``confident`` says whether the most recent BLOCK_END hit the
      table (cleared when the block id changes), and
      ``last_block_overflowed`` whether the most recent completed block
      overflowed: its prediction covers only a prefix of the working
      set, so the hybrid must not let it silence SMS (the bzip2 case).
    """

    def __init__(self, config: CbwsConfig | None = None) -> None:
        self.config = config = config or CbwsConfig()
        steps = config.max_step
        self.capacity = config.max_vector_members
        self.addr_mask = mask(config.line_addr_bits)
        self.lines: list[int] = []
        self.members: set[int] = set()
        self.overflowed = False
        self.last_blocks: deque[tuple[int, ...]] = deque(maxlen=steps)
        self.table: dict[int, tuple[int, ...]] = {}
        self.rng = DeterministicRng(config.seed)
        self.diffs: list[list[int]] = [[] for _ in range(steps)]
        self.registers: list[tuple[int, ...]] = [()] * steps
        self.tags = [history_tag((), config.hash_bits, config.tag_bits)] * steps
        self.block_id: int | None = None
        self.stats = PredictorStats()
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
    """Run Algorithm 1 for ``predictor`` over the ``kinds``/``payloads``
    event columns.

    A BLOCK_BEGIN opens a block and a BLOCK_END closes it; an access is
    pushed only while a block is open (the CBWS hardware does not see
    the others).  A change of static block id at BLOCK_BEGIN means a
    different loop is now executing (the hardware holds a single
    context, Section V-A): the predecessor CBWSs and the shift
    registers, with their tags, are flushed and ``confident`` is
    cleared.  The differential history table, its RNG and the stats are
    kept, so the new loop's first probes, made with the empty-history
    tags, can hit entries the old loop trained under those tags
    (whether they should is open: DESIGN.md §6).  Each BLOCK_END yields
    the predicted lines of the next ``predict_steps`` block instances
    (duplicates removed, order preserved), empty when no shift-register
    tag hits the table.

    The predictor's state is held in locals for the pass and written
    back at its end, so a later pass continues from it.
    """
    config = predictor.config
    capacity = predictor.capacity
    addr_mask = predictor.addr_mask
    lines = predictor.lines
    members = predictor.members
    overflowed = predictor.overflowed
    predecessors = predictor.last_blocks
    current_diffs = predictor.diffs
    registers = predictor.registers
    tags = predictor.tags
    table = predictor.table
    choice = predictor.rng.choice
    block_id = predictor.block_id
    confident = predictor.confident
    last_overflowed = predictor.last_block_overflowed

    max_step = config.max_step
    predict_steps = config.predict_steps
    depth = config.history_depth
    table_entries = config.table_entries
    hash_bits = config.hash_bits
    tag_bits = config.tag_bits
    # sign_extend(bit_select(raw, b), b) is ((raw & mask) ^ sign) - sign.
    stride_mask = mask(config.stride_bits)
    stride_sign = 1 << (config.stride_bits - 1)
    empty_hash = hash_differential((), hash_bits)
    empty_registers = [()] * max_step
    empty_tags = [history_tag((), hash_bits, tag_bits)] * max_step
    hashes: dict[tuple[int, ...], int] = {}
    shifts: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] = {}

    # Lines are truncated to line_addr_bits, so 32-bit fields fit 4-byte
    # items; this halves the kept stream at the paper's geometry.
    out = array("I" if config.line_addr_bits <= 32 else "Q")
    ends = array("Q", [0])
    emitted = completed_blocks = overflows = predictions = hits_total = 0
    # Local names: the loop would otherwise look up a global per event.
    access_kind = MEMORY_ACCESS
    begin_kind = BLOCK_BEGIN
    in_block = False
    for kind, payload in zip(kinds, payloads):
        if kind == access_kind:
            if not in_block:
                continue
            line = (payload >> line_shift) & addr_mask
            if line in members:
                continue  # a repeated line
            index = len(lines)
            if index >= capacity:
                overflowed = True
                continue
            members.add(line)
            lines.append(line)
            # Predecessor k (1-based step) pairs with the step-k
            # differential; missing predecessors end the iteration.  Lines
            # arrive at consecutive indices, so each differential stays
            # aligned with the working set and stops at the shorter of
            # the two vectors.
            for diffs, predecessor in zip(current_diffs, predecessors):
                if index < len(predecessor):
                    raw = (line - predecessor[index]) & stride_mask
                    diffs.append((raw ^ stride_sign) - stride_sign)
        elif kind == begin_kind:
            if payload != block_id:
                predecessors.clear()
                registers[:] = empty_registers
                tags[:] = empty_tags
                block_id = payload
                confident = False
            if lines or overflowed:
                lines.clear()
                members.clear()
                overflowed = False
                for diffs in current_diffs:
                    diffs.clear()
            in_block = True
        else:
            in_block = False
            completed_blocks += 1
            last_overflowed = overflowed
            if overflowed:
                overflows += 1
                overflowed = False

            # 1. Train: store each completed differential under the tag
            #    of the *pre-update* history, then shift its hash in and
            #    re-tag.
            for step, diffs in enumerate(current_diffs):
                if diffs:
                    delta = tuple(diffs)
                    diffs.clear()
                    tag = tags[step]
                    if tag not in table and len(table) >= table_entries:
                        del table[choice(list(table))]
                    table[tag] = delta
                    hashed = hashes.get(delta)
                    if hashed is None:
                        if len(hashes) >= MEMO_ENTRIES:
                            hashes.clear()
                        hashed = hashes[delta] = hash_differential(
                            delta, hash_bits)
                else:
                    hashed = empty_hash
                key = (registers[step], hashed)
                shifted = shifts.get(key)
                if shifted is None:
                    if len(shifts) >= MEMO_ENTRIES:
                        shifts.clear()
                    register = (key[0] + (hashed,))[-depth:]
                    shifted = shifts[key] = (
                        register, history_tag(register, hash_bits, tag_bits))
                registers[step], tags[step] = shifted

            # 2. Rotate: the completed CBWS becomes predecessor #1.
            completed = tuple(lines)
            if completed:
                predecessors.appendleft(completed)
                lines.clear()
                members.clear()

            # 3. Predict the next blocks with the updated history tags.
            #    A k-step differential already spans k block instances,
            #    so base + delta predicts the CBWS k blocks ahead
            #    (Figure 7).
            hits = 0
            candidates: list[int] = []
            for step in range(predict_steps):
                predicted = table.get(tags[step])
                if predicted is not None:
                    hits += 1
                    candidates += [(base + delta) & addr_mask
                                   for base, delta in zip(completed,
                                                          predicted)]
            confident = hits > 0
            if candidates:
                unique = dict.fromkeys(candidates)
                out.extend(unique)
                emitted += len(unique)
                predictions += 1
            hits_total += hits
            ends.append(emitted)

    predictor.overflowed = overflowed
    predictor.block_id = block_id
    predictor.confident = confident
    predictor.last_block_overflowed = last_overflowed
    stats = predictor.stats
    stats.blocks_completed += completed_blocks
    stats.blocks_overflowed += overflows
    stats.predictions_made += predictions
    stats.lines_predicted += emitted
    stats.table_lookups += completed_blocks * predict_steps
    stats.table_hits += hits_total
    return PredictionStream(out, ends, predictor)


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
