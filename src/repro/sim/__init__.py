"""Trace-driven timing simulation.

The gem5 substitute: a simplified out-of-order timing model driven by the
commit-order trace.  Cycles advance with instruction retirement (4-wide),
demand misses stall the core with MSHR-limited overlap between nearby
misses (memory-level parallelism inside the ROB window), and prefetches
occupy a bandwidth-limited issue queue plus an in-flight table so that
*timeliness* — did the prefetch complete before the demand arrived? — is
a first-class simulation outcome.
"""

from repro.sim.config import (
    PAPER_CONFIG,
    REDUCED_CONFIG,
    CoreConfig,
    PrefetchPathConfig,
    SimConfig,
)
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.results import DemandClass, SimResult

__all__ = [
    "CoreConfig",
    "PrefetchPathConfig",
    "SimConfig",
    "PAPER_CONFIG",
    "REDUCED_CONFIG",
    "SimulationEngine",
    "simulate",
    "DemandClass",
    "SimResult",
]
