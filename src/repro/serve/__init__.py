"""Simulation-as-a-service: the grid behind an asyncio HTTP API.

Layout::

    protocol    versioned wire types (SimulateRequest, JobView, errors)
    broker      admission control, single-flight dedup, micro-batching
    recovery    CRC-framed write-ahead job journal + restart replay
    http        hand-rolled asyncio HTTP/1.1 server + SSE streaming
    client      blocking stdlib client with a bounded retry policy
    loadgen     closed-loop load generator (BENCH_serve.json)

The broker is the core: it turns individual ``POST /v1/simulate``
requests into batched :class:`~repro.exec.plan.GridPlan` executions
on one persistent worker pool, deduplicating identical in-flight
requests by their :class:`~repro.exec.plan.SimNode` key and serving
result-cache hits without touching the pool at all.  Accepted jobs are
journaled so a crashed broker re-admits unfinished work on restart.
"""

from repro.serve.broker import AdmissionFull, Broker, Draining, UnknownJob
from repro.serve.client import (
    ConnectionFailed,
    DeadlineExceeded,
    JobNotFound,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ServerBusy,
    ServerDraining,
)
from repro.serve.http import HttpServer, ThreadedServer, run_server
from repro.serve.loadgen import (
    SERVE_BENCH_SCHEMA,
    SERVE_BENCH_SCHEMA_VERSION,
    LoadgenConfig,
    run_loadgen,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobStatus,
    JobView,
    ProtocolError,
    SimulateRequest,
)
from repro.serve.recovery import ServeJournal, journal_path, replay_unfinished

__all__ = [
    "PROTOCOL_VERSION",
    "SERVE_BENCH_SCHEMA",
    "SERVE_BENCH_SCHEMA_VERSION",
    "AdmissionFull",
    "Broker",
    "ConnectionFailed",
    "DeadlineExceeded",
    "Draining",
    "HttpServer",
    "JobNotFound",
    "JobStatus",
    "JobView",
    "LoadgenConfig",
    "ProtocolError",
    "RetryPolicy",
    "ServeClient",
    "ServeClientError",
    "ServeJournal",
    "ServerBusy",
    "ServerDraining",
    "SimulateRequest",
    "ThreadedServer",
    "UnknownJob",
    "journal_path",
    "replay_unfinished",
    "run_loadgen",
    "run_server",
]
