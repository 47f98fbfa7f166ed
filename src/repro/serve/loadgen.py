"""Closed-loop load generator for ``repro serve``.

``repro loadgen`` drives a running server with a seeded workload mix
from ``concurrency`` closed-loop worker threads (each waits for its
job to finish before issuing the next), and emits a schema-versioned
``BENCH_serve.json`` with throughput, latency percentiles, and the
dedup / cache hit rates observed both client-side (response flags) and
server-side (a ``/metrics`` delta).

Single-flight is exercised deterministically, not probabilistically: a
fraction ``duplicate_ratio`` of plan items are *paired duplicates* —
the worker submits the identical request twice back-to-back before
waiting, so the second submission reliably lands while the first is in
flight and must attach to it.  Repeated non-paired duplicates across
the run exercise the result cache instead (same key, no longer in
flight, replayed without simulating).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.prometheus import parse_prometheus
from repro.serve.client import ServeClient, ServerBusy
from repro.serve.protocol import JobStatus, SimulateRequest

#: Schema identity of the emitted JSON document.
SERVE_BENCH_SCHEMA = "repro.bench.serve"
SERVE_BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run (all knobs pinned for reproducibility)."""

    host: str = "127.0.0.1"
    port: int = 8321
    requests: int = 40
    concurrency: int = 4
    duplicate_ratio: float = 0.25
    seed: int = 0
    workloads: tuple[str, ...] = ("nw", "stencil-default")
    prefetchers: tuple[str, ...] = ("no-prefetch", "stride", "cbws")
    budget_fraction: float = 0.05
    scale: float = 1.0
    timeout: float = 600.0
    #: Attempts per item when the server answers 429.
    max_busy_retries: int = 5

    @classmethod
    def quick(cls, host: str = "127.0.0.1", port: int = 8321,
              seed: int = 0) -> "LoadgenConfig":
        """The CI smoke shape: small, duplicate-heavy, two prefetchers."""
        return cls(
            host=host,
            port=port,
            requests=12,
            concurrency=3,
            duplicate_ratio=0.5,
            seed=seed,
            workloads=("nw",),
            prefetchers=("no-prefetch", "stride"),
            budget_fraction=0.02,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view, embedded in the bench document."""
        return {
            "requests": self.requests,
            "concurrency": self.concurrency,
            "duplicate_ratio": self.duplicate_ratio,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "budget_fraction": self.budget_fraction,
            "scale": self.scale,
        }


@dataclass
class _Tally:
    """Thread-shared accounting (guarded by ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    submissions: int = 0
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def build_plan(config: LoadgenConfig) -> list[tuple[SimulateRequest, bool]]:
    """The seeded request mix: ``(request, paired_duplicate)`` items."""
    rng = random.Random(config.seed)
    plan: list[tuple[SimulateRequest, bool]] = []
    while len(plan) < config.requests:
        request = SimulateRequest(
            workload=rng.choice(config.workloads),
            prefetcher=rng.choice(config.prefetchers),
            scale=config.scale,
            budget_fraction=config.budget_fraction,
            seed=0,
        )
        plan.append((request, rng.random() < config.duplicate_ratio))
    return plan


def _submit_with_retry(client: ServeClient, config: LoadgenConfig,
                       request: SimulateRequest, tally: _Tally):
    """One admission attempt, honouring Retry-After on 429."""
    for _ in range(config.max_busy_retries):
        try:
            with tally.lock:
                tally.submissions += 1
            return client.submit(request)
        except ServerBusy as busy:
            with tally.lock:
                tally.rejected += 1
            time.sleep(min(busy.retry_after, 2.0))
    return None


def _account_terminal(view, started: float, tally: _Tally) -> None:
    latency = time.perf_counter() - started
    with tally.lock:
        tally.latencies.append(latency)
        if view.status is JobStatus.DONE:
            tally.ok += 1
            if view.cache_hit:
                tally.cache_hits += 1
        else:
            tally.failed += 1
            if view.error:
                tally.errors.append(view.error)


def _worker(client: ServeClient, config: LoadgenConfig,
            items: "queue.Queue[tuple[SimulateRequest, bool]]",
            tally: _Tally) -> None:
    while True:
        try:
            request, paired = items.get_nowait()
        except queue.Empty:
            return
        started = time.perf_counter()
        first = _submit_with_retry(client, config, request, tally)
        if first is None:
            continue
        second = None
        second_started = None
        if paired:
            # Submit the identical request again *before* waiting: the
            # first is still in flight, so this must single-flight.
            second_started = time.perf_counter()
            second = _submit_with_retry(client, config, request, tally)
            if second is not None and second.deduplicated:
                with tally.lock:
                    tally.dedup_hits += 1
        if first.deduplicated:
            with tally.lock:
                tally.dedup_hits += 1

        view = (first if first.status.terminal
                else client.wait(first.job_id, timeout=config.timeout))
        _account_terminal(view, started, tally)
        if second is not None:
            second_view = (
                second if second.status.terminal
                else client.wait(second.job_id, timeout=config.timeout))
            _account_terminal(second_view, second_started, tally)


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _metrics_delta(before: dict[str, float],
                   after: dict[str, float]) -> dict[str, float]:
    delta = {}
    for name, value in after.items():
        if name.startswith("repro_serve_") and name.endswith("_total"):
            delta[name] = value - before.get(name, 0.0)
    return delta


def run_loadgen(config: LoadgenConfig, announce=None) -> dict[str, Any]:
    """Drive the server and return the ``BENCH_serve.json`` document."""
    client = ServeClient(config.host, config.port,
                         timeout=max(30.0, config.timeout))
    client.wait_until_ready()
    health = client.health()
    metrics_before = parse_prometheus(client.metrics_text())

    items: "queue.Queue[tuple[SimulateRequest, bool]]" = queue.Queue()
    for item in build_plan(config):
        items.put(item)

    tally = _Tally()
    threads = [
        threading.Thread(target=_worker,
                         args=(client, config, items, tally),
                         name=f"loadgen-{index}")
        for index in range(max(1, config.concurrency))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - started

    metrics_after = parse_prometheus(client.metrics_text())
    latencies = sorted(tally.latencies)
    completed = tally.ok + tally.failed
    document: dict[str, Any] = {
        "schema": SERVE_BENCH_SCHEMA,
        "schema_version": SERVE_BENCH_SCHEMA_VERSION,
        "loadgen": config.to_dict(),
        "server": {
            "version": health.get("version"),
            "metrics_delta": _metrics_delta(metrics_before, metrics_after),
        },
        "totals": {
            "submissions": tally.submissions,
            "completed": completed,
            "ok": tally.ok,
            "failed": tally.failed,
            "rejected_429": tally.rejected,
            "wall_seconds": wall_seconds,
            "throughput_rps": (completed / wall_seconds
                               if wall_seconds > 0 else 0.0),
            "dedup_hits": tally.dedup_hits,
            "dedup_hit_rate": (tally.dedup_hits / tally.submissions
                               if tally.submissions else 0.0),
            "cache_hits": tally.cache_hits,
            "cache_hit_rate": (tally.cache_hits / completed
                               if completed else 0.0),
        },
        "latency_seconds": {
            "mean": (sum(latencies) / len(latencies) if latencies else 0.0),
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "errors": tally.errors[:10],
    }
    if announce is not None:
        announce(render_loadgen(document))
    return document


def render_loadgen(document: dict[str, Any]) -> str:
    """Terminal summary of one loadgen document."""
    totals = document["totals"]
    latency = document["latency_seconds"]
    lines = [
        f"repro loadgen ({totals['submissions']} submission(s), "
        f"{document['loadgen']['concurrency']} worker(s), duplicate ratio "
        f"{document['loadgen']['duplicate_ratio']:.0%})",
        "-" * 64,
        f"  completed:      {totals['completed']} "
        f"({totals['ok']} ok, {totals['failed']} failed, "
        f"{totals['rejected_429']} x 429)",
        f"  wall time:      {totals['wall_seconds']:.2f}s",
        f"  throughput:     {totals['throughput_rps']:.2f} req/s",
        f"  latency:        p50 {latency['p50'] * 1000:.0f}ms  "
        f"p95 {latency['p95'] * 1000:.0f}ms  "
        f"p99 {latency['p99'] * 1000:.0f}ms  "
        f"max {latency['max'] * 1000:.0f}ms",
        f"  dedup hit rate: {totals['dedup_hit_rate']:.1%} "
        f"({totals['dedup_hits']} single-flight join(s))",
        f"  cache hit rate: {totals['cache_hit_rate']:.1%} "
        f"({totals['cache_hits']} replay(s))",
    ]
    return "\n".join(lines)
