"""Loop runtime statistics (Figure 1).

Figure 1 of the paper reports, per benchmark, the fraction of runtime
spent executing tight innermost loops — motivating the whole CBWS design
("on average, over 70% of the benchmarks' runtime is spent executing
tight loops").  This module computes that fraction from a trace: the
instructions committed between each ``BLOCK_BEGIN``/``BLOCK_END`` pair,
over total committed instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace


@dataclass(frozen=True)
class LoopRuntimeStats:
    """Runtime decomposition of one trace.

    Attributes:
        name: trace/workload name.
        total_instructions: committed instructions in the trace.
        loop_instructions: instructions committed inside annotated blocks.
        loop_memory_accesses: loads/stores committed inside annotated blocks.
        total_memory_accesses: all committed loads/stores.
        block_instances: number of completed code block instances.
    """

    name: str
    total_instructions: int
    loop_instructions: int
    loop_memory_accesses: int
    total_memory_accesses: int
    block_instances: int

    @property
    def loop_fraction(self) -> float:
        """Fraction of instructions inside tight loops — the Fig. 1 bar."""
        if self.total_instructions == 0:
            return 0.0
        return self.loop_instructions / self.total_instructions

    @property
    def loop_access_fraction(self) -> float:
        """Fraction of memory accesses issued inside tight loops."""
        if self.total_memory_accesses == 0:
            return 0.0
        return self.loop_memory_accesses / self.total_memory_accesses


def loop_runtime_stats(trace: Trace) -> LoopRuntimeStats:
    """Decompose a trace's runtime into loop and non-loop parts."""
    loop_instructions = 0
    loop_accesses = 0
    total_accesses = 0
    block_instances = 0
    begin_icount: int | None = None
    columns = trace.events
    for kind, icount in zip(columns.kinds, columns.icounts):
        if kind == MEMORY_ACCESS:
            total_accesses += 1
            if begin_icount is not None:
                loop_accesses += 1
        elif kind == BLOCK_BEGIN:
            begin_icount = icount
        elif kind == BLOCK_END:
            if begin_icount is not None:
                loop_instructions += icount - begin_icount
                block_instances += 1
                begin_icount = None
    return LoopRuntimeStats(
        name=trace.name,
        total_instructions=trace.instructions,
        loop_instructions=loop_instructions,
        loop_memory_accesses=loop_accesses,
        total_memory_accesses=total_accesses,
        block_instances=block_instances,
    )
