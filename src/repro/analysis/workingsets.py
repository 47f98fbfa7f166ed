"""Dynamic working-set sizes (the Section IV-A 16-line claim).

"Our experiments show that 16 lines are sufficient to map the entire
working set of over 98% of the dynamic code blocks in the benchmarks
tested."  This module computes the distribution of distinct lines per
dynamic block instance, uncapped, so the claim can be checked for any
capacity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace


@dataclass(frozen=True)
class WorkingSetDistribution:
    """Distribution of dynamic block working-set sizes for one trace.

    Attributes:
        name: trace name.
        blocks: dynamic block instances observed.
        size_histogram: distinct-line count -> number of blocks.
    """

    name: str
    blocks: int
    size_histogram: dict[int, int]

    def fraction_within(self, capacity: int) -> float:
        """Fraction of dynamic blocks whose entire working set fits in
        ``capacity`` lines — the 98% claim evaluates this at 16."""
        if self.blocks == 0:
            return 0.0
        covered = sum(
            count for size, count in self.size_histogram.items()
            if size <= capacity
        )
        return covered / self.blocks

    @property
    def max_size(self) -> int:
        """Largest observed dynamic working set."""
        if not self.size_histogram:
            return 0
        return max(self.size_histogram)

    @property
    def mean_size(self) -> float:
        """Average distinct lines per dynamic block."""
        if self.blocks == 0:
            return 0.0
        weighted = sum(size * count for size, count in self.size_histogram.items())
        return weighted / self.blocks


def working_set_distribution(trace: Trace) -> WorkingSetDistribution:
    """Histogram the distinct-line count of every dynamic block."""
    histogram: Counter[int] = Counter()
    blocks = 0
    lines: set[int] | None = None
    columns = trace.events
    for kind, address in zip(columns.kinds, columns.payloads):
        if kind == MEMORY_ACCESS:
            if lines is not None:
                lines.add(address >> 6)
        elif kind == BLOCK_BEGIN:
            lines = set()
        elif kind == BLOCK_END:
            if lines is not None:
                histogram[len(lines)] += 1
                blocks += 1
            lines = None
    return WorkingSetDistribution(
        name=trace.name,
        blocks=blocks,
        size_histogram=dict(histogram),
    )
