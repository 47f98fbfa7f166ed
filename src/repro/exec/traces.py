"""The trace store: where every grid gets a workload's annotated trace.

A figure replays one trace per workload under every prefetcher, so each
trace is built once and shared.  This module alone decides how: it owns
the process-wide LRU of in-memory traces and the trace files under a
cache directory.  ``GridRunner.trace``, both paths of
:func:`repro.exec.scheduler.execute_grid` (serial, and the pool's trace
and simulation tasks) and everything above them call :func:`get_trace`.

Lookup order: memory, then ``<directory>/<TraceNode.filename>`` read
through its CRC check (a corrupt file is logged, unlinked and rebuilt),
then :func:`repro.workloads.base.build_trace`.  A trace built while a
directory is given is written there atomically, so pool workers read
what another worker built.

Entries are keyed by the file name, :func:`repro.exec.keys.trace_filename`,
which is salted with an ``ext:`` workload's content digest: after
``repro ingest --force`` the name maps to a new key and the old content
can never be served again.

The LRU keeps at most :data:`CAPACITY` traces and about
:data:`MAX_BYTES` of estimated heap.  The newest entry is always kept,
so repeated sims of one oversized workload still hit.  Every pool worker
process has its own copy.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.exec.plan import TraceNode
from repro.exec.telemetry import count_corrupt_trace
from repro.trace.io import try_read_trace, write_trace
from repro.trace.stream import Trace
from repro.workloads.base import access_budget, build_trace, get_workload

#: Where a :func:`get_trace` answer came from.
MEMORY = "memory"
DISK = "disk"
BUILT = "built"
REBUILT_CORRUPT = "rebuilt-corrupt"

#: Most traces the LRU holds: a long sweep over many scales must not
#: retain every trace it ever built.
CAPACITY = 8

#: Bound on the LRU's estimated total bytes (see :func:`trace_nbytes`),
#: so a grid of huge traces cannot run a process out of memory.
MAX_BYTES = 256 * 1024 * 1024

#: Rough per-event heap cost of a deserialized ``TraceEvent`` (a small
#: Python object plus list slot); used to estimate the LRU's footprint
#: without walking every object graph.
_EVENT_NBYTES_ESTIMATE = 160

_LRU: "OrderedDict[str, Trace]" = OrderedDict()


def trace_nbytes(trace: Trace) -> int:
    """Estimated heap footprint of one in-memory trace."""
    return 1024 + len(trace.events) * _EVENT_NBYTES_ESTIMATE


def get_trace(node: TraceNode,
              directory: str | Path | None = None) -> tuple[Trace, str]:
    """The trace ``node`` names, and where it came from.

    The source is :data:`MEMORY`, :data:`DISK`, :data:`BUILT` or
    :data:`REBUILT_CORRUPT` (the file at ``directory`` failed its check
    and was rebuilt).
    """
    key = node.filename
    trace = _LRU.get(key)
    if trace is not None:
        _LRU.move_to_end(key)
        return trace, MEMORY

    path = Path(directory) / key if directory is not None else None
    source = BUILT
    if path is not None and path.exists():
        trace = try_read_trace(path)
        if trace is not None:
            source = DISK
        else:
            # A corrupt or truncated file must not sink the grid:
            # report it, drop it, rebuild below.
            count_corrupt_trace(path)
            path.unlink(missing_ok=True)
            source = REBUILT_CORRUPT
    built = trace is None
    if built:
        spec = get_workload(node.workload)
        trace = build_trace(
            spec, scale=node.scale,
            max_accesses=access_budget(spec, node.scale,
                                       node.budget_fraction),
            seed=node.seed,
        )
    # Evict before writing, so the write's buffer does not add to the
    # peak while the evicted trace is still alive.
    _remember(key, trace)
    if built and path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trace(trace, path)
    return trace, source


def clear() -> None:
    """Drop every in-memory trace (files on disk stay)."""
    _LRU.clear()


def _remember(key: str, trace: Trace) -> None:
    _LRU[key] = trace
    _LRU.move_to_end(key)
    while len(_LRU) > CAPACITY:
        _LRU.popitem(last=False)
    total = sum(trace_nbytes(cached) for cached in _LRU.values())
    while total > MAX_BYTES and len(_LRU) > 1:
        _, evicted = _LRU.popitem(last=False)
        total -= trace_nbytes(evicted)
