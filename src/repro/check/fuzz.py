"""Seeded, coverage-driven trace fuzzing with delta-debugging shrink.

The fuzzer mutates annotated loop traces and keeps every mutant that
lights up a new oracle *feature label* (see
:mod:`repro.check.oracles`) — an AFL-style corpus where coverage is
measured on the golden models, so the corpus grows toward inputs that
exercise distinct prefetcher behaviours (stride state flips, SMS
generation closures, CBWS overflows and table evictions, ...).  Every
mutant is also replayed through the differential harnesses; any
divergence is recorded and shrunk with :func:`shrink` (ddmin over the
event list with structural repair) to a minimal counterexample.

Mutators cover the trace properties the simulator is sensitive to:
stride flips, loop-boundary jitter, block interleavings/duplication/
drops, line-size edge addresses, pc collisions.  After any mutation the
event list is repaired — block markers re-balanced (non-nested),
icounts rebuilt strictly monotonic — so every mutant is a *valid* trace
and divergences are never parser artifacts.

Fault injection (:data:`INJECTIONS`, :func:`run_injection`) wires a
deliberately broken implementation against its honest oracle to prove
end-to-end that the harness catches real bugs and shrinks them small.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.check.diff import (
    DIFF_PREFETCHERS,
    Divergence,
    diff_engine,
    diff_prefetcher,
)
from repro.check.oracles import CbwsOracle, PanglossOracle, make_oracle
from repro.core.predictor import CbwsConfig, CbwsPredictor
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.learned import PanglossConfig, PanglossPrefetcher
from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
    TraceEvent,
)
from repro.trace.stream import Trace
from repro.trace.synth import LoopSpec, synthesize_loop_trace

#: Address stepping used when mutators nudge accesses around line edges.
_LINE_SIZE = 64


def seed_traces() -> List[Trace]:
    """The deterministic seed corpus: small annotated loop traces.

    Shapes chosen to reach every oracle's interesting regions quickly:
    constant strides (stride/GHB steady state), a growing-stride walk
    (CBWS differentials), dense same-region accesses (SMS patterns,
    AMPM matches), a pointer-chase permutation (Markov), and a block
    whose working set overflows the 16-line CBWS buffer.
    """
    seeds = [
        synthesize_loop_trace(
            [LoopSpec(block_id=1, base=0x10000, stride=64, accesses=4, iterations=8)],
            name="seed-unit-stride",
        ),
        synthesize_loop_trace(
            [LoopSpec(block_id=2, base=0x40000, stride=1024, accesses=3,
                      iterations=10, pc_base=0x50_0000)],
            name="seed-large-stride",
        ),
        synthesize_loop_trace(
            [
                LoopSpec(block_id=3, base=0x80000, stride=8, accesses=6,
                         iterations=6),
                LoopSpec(block_id=4, base=0xA0000 + 64 * 40, stride=-64,
                         accesses=4, iterations=6, pc_base=0x60_0000),
            ],
            name="seed-dense-and-backwards",
        ),
        synthesize_loop_trace(
            [LoopSpec(block_id=5, base=0x20000, stride=4096, accesses=20,
                      iterations=4, write_every=3)],
            name="seed-cbws-overflow",
        ),
    ]
    # Pointer-chase permutation: repeated irregular miss sequence.
    events: List[TraceEvent] = []
    icount = 0
    cycle = [0x3000, 0x9A40, 0x1240, 0x7AC0, 0x52C0, 0xF000]
    for repeat in range(6):
        icount += 1
        events.append(BlockBegin(icount, 9))
        for position, address in enumerate(cycle):
            icount += 4
            events.append(MemoryAccess(icount, 0x70_0000 + position, address, False))
        icount += 1
        events.append(BlockEnd(icount, 9))
    chase = Trace("seed-pointer-chase", events, icount + 16)
    chase.validate()
    seeds.append(chase)
    return seeds


# -- mutation ---------------------------------------------------------------


def _block_groups(events: List[TraceEvent]) -> List[Tuple[int, int]]:
    """(begin, end) index pairs of complete block groups, inclusive."""
    groups: List[Tuple[int, int]] = []
    open_index: Optional[int] = None
    for index, event in enumerate(events):
        if event.kind == BLOCK_BEGIN:
            open_index = index
        elif event.kind == BLOCK_END and open_index is not None:
            groups.append((open_index, index))
            open_index = None
    return groups


def _rebuild(events: List[TraceEvent], name: str) -> Optional[Trace]:
    """Repair an event list into a valid trace (None when empty).

    Drops unbalanced/nested block markers, closes a trailing open
    block, and rebuilds icounts strictly monotonic; the result always
    passes :meth:`Trace.validate`.
    """
    repaired: List[TraceEvent] = []
    icount = 0
    open_block: Optional[int] = None
    for event in events:
        if event.kind == MEMORY_ACCESS:
            icount += 4
            address = event.address if event.address >= 0 else 0
            repaired.append(MemoryAccess(icount, event.pc, address, event.is_write))
        elif event.kind == BLOCK_BEGIN:
            if open_block is not None:
                continue  # nested begin: drop
            icount += 1
            open_block = event.block_id
            repaired.append(BlockBegin(icount, event.block_id))
        else:  # BLOCK_END
            if open_block is None:
                continue  # unmatched end: drop
            icount += 1
            repaired.append(BlockEnd(icount, open_block))
            open_block = None
    if open_block is not None:
        icount += 1
        repaired.append(BlockEnd(icount, open_block))
    if not repaired:
        return None
    trace = Trace(name, repaired, icount + 8)
    trace.validate()
    return trace


def mutate(trace: Trace, rng: DeterministicRng, generation: int = 0) -> Trace:
    """One random structural or address mutation, then repair."""
    events = list(trace.events)
    mutator = rng.index(8)
    accesses = [i for i, e in enumerate(events) if e.kind == MEMORY_ACCESS]
    groups = _block_groups(events)

    if mutator == 0 and accesses:  # stride flip: jump the address stream
        start = rng.choice(accesses)
        delta = rng.choice([-4096, -128, -64, 64, 128, 4096, 65536])
        for index in accesses:
            if index >= start:
                event = events[index]
                events[index] = MemoryAccess(
                    event.icount, event.pc, max(0, event.address + delta),
                    event.is_write,
                )
    elif mutator == 1 and groups:  # loop-boundary jitter: move one end
        begin, end = rng.choice(groups)
        offset = rng.choice([-2, -1, 1, 2])
        target = min(max(end + offset, begin + 1), len(events))
        marker = events.pop(end)
        events.insert(min(target, len(events)), marker)
    elif mutator == 2 and len(groups) >= 2:  # swap two whole blocks
        first, second = sorted(rng.shuffled(range(len(groups)))[:2])
        b1, e1 = groups[first]
        b2, e2 = groups[second]
        events = (
            events[:b1] + events[b2:e2 + 1]
            + events[e1 + 1:b2] + events[b1:e1 + 1] + events[e2 + 1:]
        )
    elif mutator == 3 and accesses:  # line-size edge addresses
        index = rng.choice(accesses)
        event = events[index]
        base = (event.address >> 6) << 6
        edge = rng.choice([-1, 0, 1, _LINE_SIZE - 1, _LINE_SIZE, 2 * _LINE_SIZE - 1])
        events[index] = MemoryAccess(
            event.icount, event.pc, max(0, base + edge), event.is_write,
        )
    elif mutator == 4 and groups:  # duplicate a block group
        begin, end = rng.choice(groups)
        events = events[:end + 1] + events[begin:end + 1] + events[end + 1:]
    elif mutator == 5 and len(groups) >= 2:  # drop a block group
        begin, end = rng.choice(groups)
        events = events[:begin] + events[end + 1:]
    elif mutator == 6 and accesses:  # pc collision / retarget
        index = rng.choice(accesses)
        event = events[index]
        other = events[rng.choice(accesses)]
        events[index] = MemoryAccess(
            event.icount, other.pc, event.address, event.is_write,
        )
    elif groups:  # retag a block (exercises block-switch flushes)
        begin, end = rng.choice(groups)
        new_id = rng.randint(1, 12)
        events[begin] = BlockBegin(events[begin].icount, new_id)
        events[end] = BlockEnd(events[end].icount, new_id)

    rebuilt = _rebuild(events, f"{trace.name}~g{generation}")
    return rebuilt if rebuilt is not None else trace


# -- coverage ---------------------------------------------------------------


def collect_features(trace: Trace, names: List[str]) -> Set[str]:
    """Feature labels the oracles light up while replaying ``trace``."""
    from repro.check.reference import hierarchy_oracle_for
    from repro.sim.config import REDUCED_CONFIG

    features: Set[str] = set()
    oracles = [make_oracle(name) for name in names]
    hierarchy = hierarchy_oracle_for(REDUCED_CONFIG)
    for event in trace.events:
        if event.kind == MEMORY_ACCESS:
            line = event.address >> 6
            outcome, evictions = hierarchy.demand_access(line)
            l1_hit = outcome == "l1"
            for oracle in oracles:
                oracle.on_access(event.pc, line, event.address, l1_hit)
            for evicted in evictions:
                for oracle in oracles:
                    oracle.on_l1_eviction(evicted)
        elif event.kind == BLOCK_BEGIN:
            for oracle in oracles:
                oracle.on_block_begin(event.block_id)
        else:
            for oracle in oracles:
                oracle.on_block_end(event.block_id)
    for oracle in oracles:
        features |= oracle.features
    features.add(f"trace:blocks-{min(len(_block_groups(list(trace.events))), 8)}")
    return features


# -- the fuzz loop ----------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one fuzzing session."""

    iterations: int = 0
    corpus_size: int = 0
    features: Set[str] = field(default_factory=set)
    divergences: List[Divergence] = field(default_factory=list)
    counterexamples: List[Trace] = field(default_factory=list)
    elapsed_seconds: float = 0.0


def run_fuzz(
    budget_seconds: float,
    seed: int = 0,
    names: Optional[List[str]] = None,
    *,
    impl_factory: Optional[Callable[[], Any]] = None,
    oracle_factory: Optional[Callable[[], Any]] = None,
    engine_every: int = 16,
    max_divergences: int = 3,
    shrink_counterexamples: bool = True,
) -> FuzzReport:
    """Coverage-driven fuzzing for ``budget_seconds`` wall-clock seconds.

    Each iteration mutates a corpus member, measures oracle feature
    coverage (new features admit the mutant to the corpus), and replays
    the mutant through :func:`diff_prefetcher` for every name (and
    periodically :func:`diff_engine`).  Divergences are shrunk before
    being reported.  ``impl_factory``/``oracle_factory`` override the
    machines under test for a single ``names`` entry — the
    fault-injection path.
    """
    names = list(names) if names is not None else list(DIFF_PREFETCHERS)
    rng = DeterministicRng(seed)
    report = FuzzReport()
    started = time.monotonic()

    corpus = seed_traces()
    for trace in corpus:
        report.features |= collect_features(trace, names)
        for name in names:
            divergence = _check_one(
                name, trace, impl_factory, oracle_factory
            )
            if divergence is not None:
                _record(report, name, trace, divergence,
                        impl_factory, oracle_factory, shrink_counterexamples)

    generation = 0
    while (
        time.monotonic() - started < budget_seconds
        and len(report.divergences) < max_divergences
    ):
        generation += 1
        parent = rng.choice(corpus)
        child = mutate(parent, rng, generation)
        report.iterations += 1
        new_features = collect_features(child, names) - report.features
        if new_features:
            report.features |= new_features
            corpus.append(child)
        for name in names:
            divergence = _check_one(name, child, impl_factory, oracle_factory)
            if divergence is not None:
                _record(report, name, child, divergence,
                        impl_factory, oracle_factory, shrink_counterexamples)
                break
        if impl_factory is None and report.iterations % engine_every == 0:
            engine_name = rng.choice(names)
            divergence = diff_engine(engine_name, child)
            if divergence is not None:
                report.divergences.append(divergence)
                report.counterexamples.append(child)

    report.corpus_size = len(corpus)
    report.elapsed_seconds = time.monotonic() - started
    return report


def _check_one(
    name: str,
    trace: Trace,
    impl_factory: Optional[Callable[[], Any]],
    oracle_factory: Optional[Callable[[], Any]],
) -> Optional[Divergence]:
    return diff_prefetcher(
        name, trace, impl_factory=impl_factory, oracle_factory=oracle_factory
    )


def _record(
    report: FuzzReport,
    name: str,
    trace: Trace,
    divergence: Divergence,
    impl_factory: Optional[Callable[[], Any]],
    oracle_factory: Optional[Callable[[], Any]],
    do_shrink: bool,
) -> None:
    if do_shrink:
        def still_fails(candidate: Trace) -> bool:
            return _check_one(name, candidate, impl_factory, oracle_factory) \
                is not None

        trace = shrink(trace, still_fails)
        final = _check_one(name, trace, impl_factory, oracle_factory)
        if final is not None:
            divergence = final
    report.divergences.append(divergence)
    report.counterexamples.append(trace)


# -- shrinking --------------------------------------------------------------


def shrink(
    trace: Trace,
    failing: Callable[[Trace], bool],
    max_evaluations: int = 400,
) -> Trace:
    """Delta-debugging (ddmin) over the event list with repair.

    Removes event chunks of halving size while the ``failing`` predicate
    keeps holding on the repaired remainder; stops at chunk size one or
    after ``max_evaluations`` predicate calls.  The returned trace is
    always a valid failing trace (the input itself in the worst case).
    """
    best = list(trace.events)
    best_trace = trace
    evaluations = 0
    chunk = max(1, len(best) // 2)
    while chunk >= 1 and evaluations < max_evaluations:
        reduced = False
        index = 0
        while index < len(best) and evaluations < max_evaluations:
            candidate = _rebuild(
                best[:index] + best[index + chunk:], trace.name + "~shrunk"
            )
            evaluations += 1
            if candidate is not None and len(candidate.events) < len(best) \
                    and failing(candidate):
                best = list(candidate.events)
                best_trace = candidate
                reduced = True
            else:
                index += chunk
        if not reduced:
            chunk //= 2
    return best_trace


# -- fault injection --------------------------------------------------------


class _FifoOffByOnePredictor(CbwsPredictor):
    """A predictor whose current-CBWS FIFO holds one line fewer than
    configured."""

    def __init__(self, config: CbwsConfig) -> None:
        super().__init__(config)
        self.capacity = config.max_vector_members - 1


class _FifoOffByOneCbws(CbwsPrefetcher):
    """CBWS replaying the off-by-one predictor.  Its own predictor type
    keys its prediction streams apart from an honest predictor's."""

    predictor_type = _FifoOffByOnePredictor


def _injected_cbws_fifo_off_by_one() -> CbwsPrefetcher:
    """CBWS whose current-CBWS FIFO holds one line fewer than configured.

    Built on a small geometry (4-line vectors) so the minimal
    counterexample stays tiny: the predictor needs ~5 block completions
    before the history table first hits, and 4-access blocks keep each
    completion at 6 events.
    """
    return _FifoOffByOneCbws(CbwsConfig(max_vector_members=4))


def _injected_cbws_oracle() -> CbwsOracle:
    return CbwsOracle(max_vector_members=4)


#: Tiny Pangloss geometry shared by the faulty implementation and its
#: honest oracle: saturation, slot eviction, and row reuse all happen
#: within a handful of accesses, keeping counterexamples small.
_PANGLOSS_INJECTION_GEOMETRY = dict(
    page_entries=4, markov_rows=8, row_slots=2, counter_max=2, degree=2,
)


class _LfuOffByOnePangloss(PanglossPrefetcher):
    """Pangloss whose LFU decay fires one bump later than configured.

    The classic saturating-counter fencepost: testing ``> max + 1``
    instead of ``> max`` lets a slot overshoot the counter ceiling by
    one before the row halves, skewing every later frequency comparison
    (confidence gates, coldest-slot evictions) in the row.
    """

    def _decay_due(self, count: int) -> bool:
        return count + 1 > self.config.counter_max + 1


def _injected_pangloss_lfu_off_by_one() -> PanglossPrefetcher:
    return _LfuOffByOnePangloss(
        PanglossConfig(**_PANGLOSS_INJECTION_GEOMETRY)
    )


def _injected_pangloss_oracle() -> PanglossOracle:
    return PanglossOracle(**_PANGLOSS_INJECTION_GEOMETRY)


#: name -> (prefetcher name, faulty implementation, matching honest oracle).
INJECTIONS: Dict[str, Tuple[str, Callable[[], Any], Callable[[], Any]]] = {
    "cbws-fifo-off-by-one": (
        "cbws", _injected_cbws_fifo_off_by_one, _injected_cbws_oracle
    ),
    "pangloss-lfu-off-by-one": (
        "pangloss",
        _injected_pangloss_lfu_off_by_one,
        _injected_pangloss_oracle,
    ),
}


@dataclass
class InjectionResult:
    """Outcome of a fault-injection self-test."""

    injection: str
    caught: bool
    counterexample: Optional[Trace]
    divergence: Optional[Divergence]

    @property
    def counterexample_events(self) -> int:
        return len(self.counterexample.events) if self.counterexample else 0


def run_injection(
    injection: str,
    budget_seconds: float = 10.0,
    seed: int = 0,
) -> InjectionResult:
    """Prove the harness catches a known-bad implementation.

    Fuzzes the faulty implementation against its honest oracle and
    shrinks the first divergence; ``caught`` is False only if the whole
    budget elapses without a divergence (a harness regression).
    """
    try:
        name, impl_factory, oracle_factory = INJECTIONS[injection]
    except KeyError:
        known = ", ".join(sorted(INJECTIONS))
        raise ConfigError(f"unknown injection {injection!r}; known: {known}") \
            from None
    report = run_fuzz(
        budget_seconds, seed=seed, names=[name],
        impl_factory=impl_factory, oracle_factory=oracle_factory,
        max_divergences=1,
    )
    if not report.divergences:
        return InjectionResult(injection, False, None, None)
    return InjectionResult(
        injection, True, report.counterexamples[0], report.divergences[0]
    )
