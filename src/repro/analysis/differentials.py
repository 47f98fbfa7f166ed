"""The skewed distribution of CBWS differential vectors (Figure 5).

Section II-B argues the whole design is viable because "the vast
majority of loop iterations are served by a tiny fraction of the
differential vectors" — e.g. 5% of soplex's distinct vectors cover ~90%
of its iterations.  This module measures that distribution directly from
a trace: extract the CBWS of every completed block instance, compute
consecutive differentials per static block, count distinct vectors, and
build the cumulative coverage curve.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.cbws import CodeBlockWorkingSet, differential
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace


def extract_cbws_sequences(
    trace: Trace,
    max_members: int | None = 16,
) -> dict[int, list[tuple[int, ...]]]:
    """Per static block id, the sequence of CBWS vectors it produced."""
    sequences: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    current: CodeBlockWorkingSet | None = None
    current_id: int | None = None
    columns = trace.events
    for kind, payload in zip(columns.kinds, columns.payloads):
        if kind == MEMORY_ACCESS:
            if current is not None:
                current.observe(payload >> 6)
        elif kind == BLOCK_BEGIN:
            current = CodeBlockWorkingSet(max_members=max_members)
            current_id = payload
        elif kind == BLOCK_END:
            if current is not None and current_id is not None and len(current):
                sequences[current_id].append(current.as_tuple())
            current = None
            current_id = None
    return dict(sequences)


@dataclass(frozen=True)
class DifferentialDistribution:
    """The Figure 5 distribution for one trace.

    Attributes:
        name: trace name.
        iterations: number of differentials observed (block transitions).
        distinct_vectors: number of distinct differential vectors.
        coverage_curve: list of (fraction of distinct vectors, fraction
            of iterations covered), vectors sorted most-frequent first.
    """

    name: str
    iterations: int
    distinct_vectors: int
    coverage_curve: tuple[tuple[float, float], ...]

    def coverage_at(self, vector_fraction: float) -> float:
        """Iteration coverage achieved by the top ``vector_fraction`` of
        distinct vectors (the paper's "90% by 5%" readout).

        The vector budget rounds up to at least one vector: a benchmark
        with two distinct vectors is maximally skewed, and its curve
        starts at the first vector rather than at zero.
        """
        if not self.coverage_curve:
            return 0.0
        budget = max(1, int(vector_fraction * self.distinct_vectors + 1e-9))
        index = min(budget, len(self.coverage_curve)) - 1
        return self.coverage_curve[index][1]

    @property
    def skew(self) -> float:
        """Coverage by the top 10% of vectors — a scalar skew index."""
        return self.coverage_at(0.10)


def differential_distribution(
    trace: Trace,
    max_members: int | None = 16,
) -> DifferentialDistribution:
    """Measure the distribution of consecutive CBWS differentials."""
    sequences = extract_cbws_sequences(trace, max_members)
    counts: Counter[tuple[int, ...]] = Counter()
    for cbws_list in sequences.values():
        for older, newer in zip(cbws_list, cbws_list[1:]):
            delta = differential(older, newer)
            if delta:
                counts[delta] += 1

    total = sum(counts.values())
    distinct = len(counts)
    curve: list[tuple[float, float]] = []
    if total and distinct:
        covered = 0
        for rank, (_, count) in enumerate(counts.most_common(), start=1):
            covered += count
            curve.append((rank / distinct, covered / total))
    return DifferentialDistribution(
        name=trace.name,
        iterations=total,
        distinct_vectors=distinct,
        coverage_curve=tuple(curve),
    )
