"""Commit-order trace substrate.

A trace is the sequence of events the CBWS hardware would observe at the
commit stage of the pipeline (Section V-B: "the prefetcher obtains the
address sequence from the in-order commit stage"):

* :class:`MemoryAccess` — one committed load or store,
* :class:`BlockBegin` / :class:`BlockEnd` — the ``BLOCK_BEGIN(id)`` /
  ``BLOCK_END(id)`` ISA markers inserted by the loop-annotation pass.

A trace stores them as typed-array columns (:mod:`repro.trace.columnar`).
Traces are produced by the compiled IR kernel (:mod:`repro.ir.compile`),
serialized to a compact binary format (:mod:`repro.trace.io`), and
consumed by the simulation engine (:mod:`repro.sim.engine`).
"""

from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
    TraceEvent,
)
from repro.trace.stream import Trace, TraceStats
from repro.trace.io import read_trace, write_trace
from repro.trace.synth import AddressSpace, Allocation

__all__ = [
    "MEMORY_ACCESS",
    "BLOCK_BEGIN",
    "BLOCK_END",
    "TraceEvent",
    "MemoryAccess",
    "BlockBegin",
    "BlockEnd",
    "Trace",
    "TraceStats",
    "read_trace",
    "write_trace",
    "AddressSpace",
    "Allocation",
]
