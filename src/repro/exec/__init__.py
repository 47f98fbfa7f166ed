"""Parallel grid execution engine.

``repro.exec`` turns a (workload x prefetcher) evaluation grid into one
task per trace — build the trace once, then run every simulation that
replays it — and executes the tasks in-process or on a multiprocessing
worker pool with a content-addressed on-disk result cache, per-cell
timeout/retry, and worker-crash recovery.

Layering: the engine sits *below* :class:`repro.harness.runner.GridRunner`
(which delegates to it for ``jobs != 1`` or when a result cache is
configured) and *above* ``repro.sim`` / ``repro.trace`` / ``repro.workloads``
(whose artifacts it schedules).  It never imports the harness at module
scope, so the harness can import it freely.

============== ==========================================================
``keys``       stable content-addressed hashing of task inputs
``plan``       SimNode (the one sim identity + key) and the grid plan
``cache``      on-disk result cache keyed by ``SimNode.key``
``traces``     the trace store: the one in-memory trace LRU
``pool``       the one task function + pool lifecycle
``scheduler``  task orchestration, retries, quarantine, degradation
``telemetry``  counters, per-task wall times, ETA, persistence
``journal``    write-ahead run journal + resume replay
``faults``     deterministic fault injection for the test suite
============== ==========================================================
"""

from repro.exec.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.exec.faults import FaultInjector, FaultSpec, parse_fault_plan
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    RunReplay,
    RunSummary,
    list_runs,
    load_run,
    new_run_id,
    replay,
    run_fingerprint,
)
from repro.exec.keys import (
    CODE_VERSION,
    sim_key,
    stable_hash,
    trace_key,
)
from repro.exec.plan import GridPlan, SimNode, TraceNode
from repro.exec.pool import InjectSpec, WorkerPool
from repro.exec.scheduler import ExecOptions, execute_grid
from repro.exec.telemetry import ExecTelemetry
from repro.exec.traces import trace_nbytes

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_VERSION",
    "ExecOptions",
    "ExecTelemetry",
    "FaultInjector",
    "FaultSpec",
    "GridPlan",
    "InjectSpec",
    "JOURNAL_SCHEMA_VERSION",
    "ResultCache",
    "RunJournal",
    "RunReplay",
    "RunSummary",
    "SimNode",
    "TraceNode",
    "WorkerPool",
    "execute_grid",
    "list_runs",
    "load_run",
    "new_run_id",
    "parse_fault_plan",
    "replay",
    "run_fingerprint",
    "sim_key",
    "stable_hash",
    "trace_key",
    "trace_nbytes",
]
