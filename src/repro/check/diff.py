"""Differential harnesses: implementation vs oracle, fast vs reference.

Three harnesses, each replaying one trace and reporting the **first
divergence** with a machine-state dump (or ``None`` when the replay is
clean):

* :func:`diff_prefetcher` — drives a production prefetcher and its
  :mod:`repro.check.oracles` golden model with an identical demand
  stream (derived from the oracle hierarchy with no prefetch fills, so
  hit/miss annotations and L1-eviction callbacks are deterministic and
  engine-independent) and compares every candidate list.
* :func:`diff_engine` — runs the columnar fast path and the engine
  oracle (:func:`repro.check.reference.run_reference`, which runs on
  the hierarchy oracle) on fresh machines and compares the full result
  serialization plus hierarchy statistics (they are documented as
  bit-identical).
* :func:`diff_hierarchy` — steps the implementation hierarchy's
  ``*_fast`` methods alongside the hierarchy oracle, interleaving
  deterministic prefetch fills, and compares outcome codes, eviction
  sequences, and statistics per access.

Oracle-vs-implementation prefetcher diffs run at 64-byte lines only:
the stride implementation (deliberately, see its oracle) converts
predicted addresses with the global 64-byte line shift, so other line
sizes are covered by the engine diff instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.check.oracles import make_oracle
from repro.check.reference import hierarchy_oracle_for, run_reference
from repro.harness.registry import PREFETCHER_FACTORIES, make_prefetcher
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.prefetchers.base import DemandInfo, Prefetcher
from repro.sim.config import REDUCED_CONFIG, CoreConfig, SimConfig
from repro.sim.engine import SimulationEngine
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace

#: Prefetcher names with a golden model (the oracle-diff surface).
DIFF_PREFETCHERS = [
    "stride",
    "ghb-g/dc",
    "ghb-pc/dc",
    "sms",
    "markov",
    "ampm",
    "cbws",
    "cbws+sms",
    "pangloss",
    "pythia",
]


@dataclass
class Divergence:
    """First point where two models of the same machine disagree.

    Attributes:
        kind: ``"prefetcher"``, ``"engine"``, or ``"hierarchy"``.
        subject: prefetcher/config name under test.
        trace: name of the trace that exposed the divergence.
        event_index: position in the event stream (-1 for end-of-run
            comparisons such as engine result totals).
        description: what disagreed.
        expected: the oracle/reference value.
        actual: the implementation value.
        state: machine-state dump at the divergence point.
    """

    kind: str
    subject: str
    trace: str
    event_index: int
    description: str
    expected: Any
    actual: Any
    state: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [
            f"{self.kind} divergence [{self.subject}] on trace "
            f"'{self.trace}' at event {self.event_index}: {self.description}",
            f"  expected: {self.expected!r}",
            f"  actual:   {self.actual!r}",
        ]
        for key in sorted(self.state):
            lines.append(f"  {key}: {self.state[key]!r}")
        return "\n".join(lines)


def config_with_line_size(line_size: int) -> SimConfig:
    """The reduced-scale machine at an arbitrary line size."""
    core = CoreConfig()
    return SimConfig(
        hierarchy=HierarchyConfig(
            l1=CacheConfig(
                name="L1D", size_bytes=4096, associativity=4,
                line_size=line_size, latency=core.l1_latency, mshrs=4,
            ),
            l2=CacheConfig(
                name="L2", size_bytes=131072, associativity=8,
                line_size=line_size, latency=core.l2_latency, mshrs=32,
            ),
            line_size=line_size,
        ),
        core=core,
    )


def _state_dump(impl: Any, oracle: Any) -> Dict[str, Any]:
    """Small, human-scannable snapshot of both machines."""
    state: Dict[str, Any] = {"oracle_features": sorted(oracle.features)}
    replayed = getattr(impl, "blocks_replayed", None)
    if replayed is not None:
        state["impl.blocks_replayed"] = replayed
    oracle_current = getattr(oracle, "current", None)
    if oracle_current is not None:
        state["oracle.current"] = tuple(oracle_current)
        state["oracle.overflowed"] = oracle.overflowed
        state["oracle.last_blocks"] = list(oracle.last_blocks)
        state["oracle.table_size"] = len(oracle.table)
    return state


def diff_prefetcher(
    name: str,
    trace: Trace,
    *,
    impl_factory: Optional[Callable[[], Prefetcher]] = None,
    oracle_factory: Optional[Callable[[], Any]] = None,
) -> Optional[Divergence]:
    """Replay ``trace`` through implementation and oracle; first mismatch.

    Both sides receive the identical :class:`DemandInfo` stream and
    L1-eviction callbacks, derived from the hierarchy oracle running
    demand accesses only (64-byte lines, reduced geometry).  The
    implementation gets ``on_trace`` first, as in a simulation; the
    oracle follows the block markers one event at a time.  Custom
    factories support fault-injection self-tests.
    """
    impl = impl_factory() if impl_factory is not None else make_prefetcher(name)
    oracle = oracle_factory() if oracle_factory is not None else make_oracle(name)
    hierarchy = hierarchy_oracle_for(REDUCED_CONFIG)
    impl.on_trace(trace, 6)

    for index, event in enumerate(trace.events):
        kind = event.kind
        if kind == MEMORY_ACCESS:
            line = event.address >> 6
            outcome, evictions = hierarchy.demand_access(line)
            info = DemandInfo(
                pc=event.pc,
                line=line,
                address=event.address,
                is_write=event.is_write,
                l1_hit=outcome == "l1",
                l2_hit=outcome != "memory",
            )
            actual = impl.on_access(info)
            expected = oracle.on_access(info)
            if actual != expected:
                return Divergence(
                    kind="prefetcher", subject=name, trace=trace.name,
                    event_index=index,
                    description=f"on_access candidates differ ({event!r})",
                    expected=expected, actual=actual,
                    state=_state_dump(impl, oracle),
                )
            for evicted in evictions:
                impl.on_l1_eviction(evicted)
                oracle.on_l1_eviction(evicted)
        elif kind == BLOCK_BEGIN:
            oracle.on_block_begin(event.block_id)
        else:  # BLOCK_END
            actual = impl.on_block_end(event.block_id)
            expected = oracle.on_block_end(event.block_id)
            if actual != expected:
                return Divergence(
                    kind="prefetcher", subject=name, trace=trace.name,
                    event_index=index,
                    description=f"on_block_end candidates differ ({event!r})",
                    expected=expected, actual=actual,
                    state=_state_dump(impl, oracle),
                )
    return None


def diff_engine(
    name: str,
    trace: Trace,
    config: SimConfig = REDUCED_CONFIG,
) -> Optional[Divergence]:
    """Fast path vs engine oracle on fresh machines; first mismatch.

    Compares the full result and then all six hierarchy counters: the
    fast path's :class:`~repro.memory.hierarchy.CacheHierarchy` against
    the engine oracle's :class:`~repro.check.oracles.HierarchyOracle`.
    """
    factory = PREFETCHER_FACTORIES[name]
    fast_engine = SimulationEngine(config, factory())
    oracle_hierarchy = hierarchy_oracle_for(config)
    fast = fast_engine.run(trace).to_dict()
    reference = run_reference(
        SimulationEngine(config, factory()), trace, oracle_hierarchy
    ).to_dict()
    if fast != reference:
        keys = [key for key in reference if fast.get(key) != reference[key]]
        return Divergence(
            kind="engine", subject=name, trace=trace.name, event_index=-1,
            description=f"fast path result differs from reference on {keys}",
            expected={key: reference[key] for key in keys},
            actual={key: fast.get(key) for key in keys},
        )
    fast_stats = vars(fast_engine.hierarchy.stats)
    if fast_stats != oracle_hierarchy.stats:
        return Divergence(
            kind="engine", subject=name, trace=trace.name, event_index=-1,
            description="hierarchy statistics differ between fast and reference",
            expected=dict(oracle_hierarchy.stats), actual=dict(fast_stats),
        )
    return None


_FAST_OUTCOMES = {0: "l1", 1: "l2", 2: "l2-prefetch", 3: "memory"}


def diff_hierarchy(
    trace: Trace,
    config: SimConfig = REDUCED_CONFIG,
    prefetch_interval: int = 5,
) -> Optional[Divergence]:
    """Implementation hierarchy (the ``*_fast`` methods) vs oracle.

    Every ``prefetch_interval``-th access additionally injects a
    prefetch fill of the neighbouring line into both models so the
    prefetch-flag and LRU-insertion paths are exercised.
    """
    fast = CacheHierarchy(config.hierarchy)
    oracle = hierarchy_oracle_for(config)
    line_shift = config.hierarchy.line_size.bit_length() - 1

    accesses = 0
    for index, event in enumerate(trace.events):
        if event.kind != MEMORY_ACCESS:
            continue
        line = event.address >> line_shift
        expected = oracle.demand_access(line)
        evictions: List[int] = []
        actual = (_FAST_OUTCOMES[fast.demand_access_fast(line, evictions)], evictions)
        if actual != expected:
            return Divergence(
                kind="hierarchy", subject="fast", trace=trace.name,
                event_index=index,
                description="demand access outcome/evictions differ",
                expected=expected, actual=actual,
                state={"line": line, "oracle_stats": dict(oracle.stats)},
            )

        accesses += 1
        if accesses % prefetch_interval == 0:
            target = line + 1
            expected = oracle.prefetch_fill(target)
            back: List[int] = []
            actual = (fast.prefetch_fill_fast(target, back), back)
            if actual != expected:
                return Divergence(
                    kind="hierarchy", subject="fast", trace=trace.name,
                    event_index=index,
                    description="prefetch fill outcome/evictions differ",
                    expected=expected, actual=actual,
                    state={"line": target, "oracle_stats": dict(oracle.stats)},
                )

    stats = vars(fast.stats)
    if stats != oracle.stats:
        return Divergence(
            kind="hierarchy", subject="fast", trace=trace.name, event_index=-1,
            description="hierarchy statistics differ from oracle",
            expected=dict(oracle.stats), actual=dict(stats),
        )
    return None


def diff_all(
    trace: Trace,
    names: Optional[List[str]] = None,
    engine_names: Optional[List[str]] = None,
) -> List[Divergence]:
    """Every harness over one trace; all first-divergences found."""
    divergences: List[Divergence] = []
    hierarchy_divergence = diff_hierarchy(trace)
    if hierarchy_divergence is not None:
        divergences.append(hierarchy_divergence)
    for name in names if names is not None else DIFF_PREFETCHERS:
        divergence = diff_prefetcher(name, trace)
        if divergence is not None:
            divergences.append(divergence)
    for name in (engine_names if engine_names is not None
                 else sorted(PREFETCHER_FACTORIES)):
        divergence = diff_engine(name, trace)
        if divergence is not None:
            divergences.append(divergence)
    return divergences
