"""The grid plan, and the one identity of a simulation.

A :class:`SimNode` is one fully determined simulation: the trace it
replays (a :class:`TraceNode`), the prefetcher name the caller asked
for, and the machine config.  Its :attr:`SimNode.key` is the only place
a result-cache key is made: the grid runner, campaign cells and serve
requests all build a node and read its key, so a simulation cached by
one path replays on every other.  The key hashes the canonical
prefetcher name, so two spellings of one geometry share it.

A :class:`GridPlan` is a list of such nodes; they may differ in trace
identity and config.  The scheduler makes one task of each distinct
trace node and its simulation nodes: the task builds the trace once,
then runs the simulations that replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from repro.exec.keys import sim_key, trace_key
from repro.sim.config import SimConfig


@dataclass(frozen=True)
class TraceNode:
    """One trace: built once per task, replayed by its simulations."""

    workload: str
    scale: float
    budget_fraction: float
    seed: int

    @property
    def key(self) -> str:
        """Content key of the trace this node produces."""
        return trace_key(self.workload, self.scale, self.budget_fraction,
                         self.seed)

    @property
    def name(self) -> str:
        return f"trace:{self.workload}"


@dataclass(frozen=True)
class SimNode:
    """One simulation; replays its :class:`TraceNode`.

    ``prefetcher`` is the name as the caller spelled it: the result
    carries that spelling, while :attr:`key` hashes its canonical form.
    """

    trace: TraceNode
    prefetcher: str
    config: SimConfig

    @property
    def workload(self) -> str:
        return self.trace.workload

    @property
    def cell(self) -> tuple[str, str]:
        """The (workload, prefetcher) grid coordinates."""
        return (self.trace.workload, self.prefetcher)

    @cached_property
    def key(self) -> str:
        """Content key of the simulation result this node produces."""
        from repro.harness.registry import canonical_prefetcher_name

        return sim_key(
            self.trace.workload,
            canonical_prefetcher_name(self.prefetcher),
            self.trace.scale,
            self.trace.budget_fraction,
            self.trace.seed,
            self.config,
        )

    @property
    def name(self) -> str:
        return f"sim:{self.trace.workload}:{self.prefetcher}"


class GridPlan:
    """A list of simulation nodes and the distinct traces they replay.

    Args:
        nodes: the simulations, in the order results are wanted.  They
            may differ in trace identity and config; nodes replaying one
            trace share its :class:`TraceNode`.
    """

    def __init__(self, nodes: Iterable[SimNode]) -> None:
        self.sim_nodes: list[SimNode] = list(nodes)
        #: Each distinct trace, in first-use order.
        self.trace_nodes: list[TraceNode] = list(
            dict.fromkeys(node.trace for node in self.sim_nodes))

    @classmethod
    def from_grid(
        cls,
        workloads: Sequence[str],
        prefetchers: Sequence[str],
        scale: float,
        budget_fraction: float,
        seed: int,
        config: SimConfig,
    ) -> "GridPlan":
        """The full workload-major grid, matching the serial loop order."""
        return cls(
            SimNode(TraceNode(w, scale, budget_fraction, seed), p, config)
            for w in workloads for p in prefetchers
        )

    def __len__(self) -> int:
        return len(self.sim_nodes)
