"""The trace store: where every grid gets a workload's annotated trace.

A figure replays one trace per workload under every prefetcher, so each
trace is built once and shared.  This module alone decides how: it owns
the process-wide LRU of in-memory traces.  ``GridRunner.trace`` and
every task of :func:`repro.exec.scheduler.execute_grid`
(:func:`repro.exec.pool.run_task`, in-process or on a pool worker) call
:func:`get_trace`, which answers from the LRU or builds the trace with
:func:`repro.workloads.base.build_trace`.  Nothing is written to disk:
rebuilding a trace is cheaper than decoding a file of it.

Entries are keyed by :attr:`TraceNode.key`, which is salted with an
``ext:`` workload's content digest: after ``repro ingest --force`` the
name maps to a new key and the old content can never be served again.

The LRU keeps at most :data:`CAPACITY` traces and :data:`MAX_BYTES` of
event columns (26 bytes per event, :func:`trace_nbytes`); at budget 1.0
the count cap binds first.  The newest entry is always kept, so
repeated sims of one oversized workload still hit.  Every pool worker
process has its own copy.  A task gets its trace once and then runs all
of its sims, so a worker builds a trace once per task it is given; only
a trace whose sims are split across tasks, or retried, can be built by
more than one worker.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.exec.plan import TraceNode
from repro.trace.stream import Trace
from repro.workloads.base import access_budget, build_trace, get_workload

#: Where a :func:`get_trace` answer came from.
MEMORY = "memory"
BUILT = "built"

#: Most traces the LRU holds: a long sweep over many scales must not
#: retain every trace it ever built.
CAPACITY = 8

#: Bound on the LRU's total column bytes (see :func:`trace_nbytes`),
#: so a grid of huge traces cannot run a process out of memory.
MAX_BYTES = 256 * 1024 * 1024

_LRU: "OrderedDict[str, Trace]" = OrderedDict()


def trace_nbytes(trace: Trace) -> int:
    """Bytes of one in-memory trace's event columns."""
    return trace.events.nbytes


def get_trace(node: TraceNode) -> tuple[Trace, str]:
    """The trace ``node`` names, and whether it was :data:`MEMORY` or
    :data:`BUILT`."""
    key = node.key
    trace = _LRU.get(key)
    if trace is not None:
        _LRU.move_to_end(key)
        return trace, MEMORY
    spec = get_workload(node.workload)
    trace = build_trace(
        spec, scale=node.scale,
        max_accesses=access_budget(spec, node.scale, node.budget_fraction),
        seed=node.seed,
    )
    _remember(key, trace)
    return trace, BUILT


def clear() -> None:
    """Drop every in-memory trace."""
    _LRU.clear()


def load_build_stack() -> None:
    """Import what building a trace needs but ``import repro`` skips
    (numpy), for a caller that must not pay it later: a pool about to
    fork its workers, or a server about to report ready."""
    import numpy  # noqa: F401


def _remember(key: str, trace: Trace) -> None:
    _LRU[key] = trace
    _LRU.move_to_end(key)
    while len(_LRU) > CAPACITY:
        _LRU.popitem(last=False)
    total = sum(trace_nbytes(cached) for cached in _LRU.values())
    while total > MAX_BYTES and len(_LRU) > 1:
        _, evicted = _LRU.popitem(last=False)
        total -= trace_nbytes(evicted)
