"""Differential and property-based verification of the simulator.

The package holds five pieces:

* :mod:`repro.check.oracles` — slow, obviously-correct golden models of
  every prefetcher and the cache hierarchy, written independently from
  the paper/DESIGN.md with no code shared with the implementations;
* :mod:`repro.check.reference` — the engine oracle: the timing model
  written out one event object at a time, which the production
  :meth:`~repro.sim.engine.SimulationEngine.run` must match bit for bit;
* :mod:`repro.check.diff` — differential harnesses replaying traces
  through implementation vs oracle (and fast path vs engine oracle),
  reporting the first divergence with a machine-state dump;
* :mod:`repro.check.fuzz` — a seeded, coverage-driven trace fuzzer with
  delta-debugging shrink and fault injection;
* :mod:`repro.check.invariants` — runtime invariant checks wired into
  the engine and hierarchy behind a zero-cost-when-disabled flag.

This ``__init__`` stays import-light on purpose: the simulation engine
imports :mod:`repro.check.invariants` at module load, while
:mod:`repro.check.diff` and :mod:`repro.check.reference` import the
engine — eagerly re-exporting them here would create an import cycle.
"""

from __future__ import annotations

_SUBMODULES = ("diff", "fuzz", "invariants", "oracles", "reference")


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.check.{name}")
    raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
