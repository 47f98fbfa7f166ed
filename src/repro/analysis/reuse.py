"""Reuse-distance analysis.

The reduced-scale methodology (EXPERIMENTS.md) rests on one claim: if a
workload's reuse-distance profile straddles the L2 capacity the same way
the original straddles the paper's 2 MB L2, the miss behaviour — and so
the prefetcher comparison — is preserved.  This module measures that
profile: for every access, the number of *distinct lines* touched since
the previous access to the same line (the classic LRU stack distance).

A cache of C lines (fully-associative LRU) hits exactly the accesses
with reuse distance < C, so the profile's CDF directly predicts miss
ratios at any capacity — used by tests to confirm each workload's
footprint sits on the intended side of the reduced L2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.trace.events import MEMORY_ACCESS
from repro.trace.stream import Trace

#: Bucket for first-touch (cold) accesses.
COLD = -1


@dataclass(frozen=True)
class ReuseProfile:
    """LRU stack-distance histogram of one trace.

    Attributes:
        name: trace name.
        accesses: total line-granularity accesses measured.
        histogram: reuse distance -> count; :data:`COLD` counts first
            touches.
    """

    name: str
    accesses: int
    histogram: dict[int, int]


def reuse_profile(trace: Trace, max_tracked: int = 1 << 20) -> ReuseProfile:
    """Measure the LRU stack-distance histogram of a trace.

    Uses the classic two-level approach: an ordered recency list with a
    position index, O(n * d) worst case but fast for the bounded reuse
    distances real kernels exhibit.  ``max_tracked`` caps the recency
    list so adversarial traces cannot exhaust memory; distances beyond
    the cap are reported at the cap.
    """
    histogram: Counter[int] = Counter()
    recency: list[int] = []  # most recent at the end
    position: dict[int, int] = {}
    accesses = 0

    columns = trace.events
    for kind, address in zip(columns.kinds, columns.payloads):
        if kind != MEMORY_ACCESS:
            continue
        accesses += 1
        line = address >> 6
        index = position.get(line)
        if index is None:
            histogram[COLD] += 1
        else:
            # Distinct lines touched since last touch of `line`.
            distance = len(recency) - index - 1
            histogram[min(distance, max_tracked)] += 1
            recency.pop(index)
            for moved in range(index, len(recency)):
                position[recency[moved]] = moved
        recency.append(line)
        position[line] = len(recency) - 1
        if len(recency) > max_tracked:
            evicted = recency.pop(0)
            del position[evicted]
            for moved_line, moved_index in position.items():
                position[moved_line] = moved_index - 1
    return ReuseProfile(
        name=trace.name, accesses=accesses, histogram=dict(histogram)
    )
