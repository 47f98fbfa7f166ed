"""``repro bench``: the pinned hot-path benchmark and its JSON schema.

Replays a pinned (workload × prefetcher) grid through the simulation
engine with per-cell wall-clock timing and emits a schema-versioned
``BENCH_sim_hotpath.json`` for cross-PR trajectory tracking: total and
per-cell events/sec, trace-build cost, the result-cache hit rate of a
cold/warm replay, and a short digest of every cell's ``SimResult`` so a
perf regression *or* a silent behaviour change shows up in the same
check.

The grid is pinned (workloads, prefetchers, budget, scale, seed, reduced
config) precisely so numbers are comparable across commits; ``--quick``
selects a four-workload subset sized for CI smoke runs.  Checking is
tolerance-based for throughput (machine noise) and exact for result
digests (simulations are deterministic).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro import obs
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.engine import simulate
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import access_budget, build_trace, get_workload

#: Schema identity of the emitted JSON document.
BENCH_SCHEMA = "repro.bench.sim_hotpath"
BENCH_SCHEMA_VERSION = 1

#: Pinned quick subset: one streaming kernel, one pointer chaser, one
#: stride-friendly SPEC loop, and one irregular graph workload, so the
#: smoke covers the engine's easy and hard regimes.
QUICK_WORKLOADS = (
    "stencil-default",
    "429.mcf-ref",
    "462.libquantum-ref",
    "canneal-simlarge",
)

#: Budget fractions pinned per mode (fraction of each workload's default
#: access budget, exactly as the figure harness scales them).
FULL_BUDGET_FRACTION = 0.25
QUICK_BUDGET_FRACTION = 0.1

#: Workloads used for the cold/warm result-cache replay phase (kept
#: small on purpose: the phase re-simulates its cells once, cold).
CACHE_REPLAY_WORKLOADS = QUICK_WORKLOADS[:2]


@dataclass(frozen=True)
class BenchGrid:
    """The pinned grid one bench run replays."""

    mode: str
    workloads: tuple[str, ...]
    prefetchers: tuple[str, ...]
    budget_fraction: float
    scale: float = 1.0
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready description (embedded in the document)."""
        return {
            "mode": self.mode,
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "budget_fraction": self.budget_fraction,
            "scale": self.scale,
            "seed": self.seed,
        }


def bench_grid(quick: bool = False) -> BenchGrid:
    """The pinned benchmark grid: the fig14 grid, or the quick subset."""
    from repro.harness.registry import PAPER_PREFETCHER_ORDER

    prefetchers = tuple(PAPER_PREFETCHER_ORDER)
    if quick:
        return BenchGrid("quick", QUICK_WORKLOADS, prefetchers,
                         QUICK_BUDGET_FRACTION)
    return BenchGrid("full", tuple(ALL_WORKLOADS), prefetchers,
                     FULL_BUDGET_FRACTION)


def result_digest(result: Any) -> str:
    """Short content digest of a SimResult (bit-identity tripwire)."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _bench_trace(workload: str, grid: BenchGrid):
    """Build one workload's trace under the grid runs' access budget."""
    spec = get_workload(workload)
    budget = access_budget(spec, grid.scale, grid.budget_fraction)
    return build_trace(spec, scale=grid.scale, max_accesses=budget,
                       seed=grid.seed)


def _cache_replay(grid: BenchGrid, config: SimConfig) -> dict[str, Any]:
    """Cold+warm grid replay against a throwaway result cache.

    The warm pass must be a pure cache read, so its hit rate is the
    bench's integrity check on the result cache — anything below 1.0
    means cache keys or artifact verification regressed.
    """
    from repro.exec import telemetry as telemetry_module
    from repro.harness.runner import GridRunner

    workloads = [w for w in CACHE_REPLAY_WORKLOADS if w in grid.workloads]
    if not workloads:
        workloads = list(grid.workloads[:1])
    phase: dict[str, Any] = {
        "workloads": workloads,
        "prefetchers": list(grid.prefetchers),
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        for pass_name in ("cold", "warm"):
            runner = GridRunner(
                config=config,
                scale=grid.scale,
                budget_fraction=grid.budget_fraction,
                seed=grid.seed,
                cache_dir=tmp,
                jobs=1,
            )
            started = perf_counter()
            runner.run_grid(workloads, grid.prefetchers)
            phase[f"{pass_name}_seconds"] = perf_counter() - started
            telemetry = telemetry_module.LAST_RUN
            hits = telemetry.cache_hits
            misses = telemetry.cache_misses
            total = hits + misses
            phase[f"{pass_name}_hit_rate"] = hits / total if total else 0.0
    return phase


def run_bench(
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    cache_phase: bool = True,
) -> dict[str, Any]:
    """Run the pinned benchmark; returns the JSON-ready document.

    Cell timing covers :func:`~repro.sim.engine.simulate` only (fresh
    prefetcher, prebuilt trace); trace construction is timed separately.
    Probes already enabled by ``--profile`` stay enabled and their
    snapshot is embedded; the bench itself does not enable them, so the
    timed region runs exactly the production (unprofiled) path.
    """
    from repro.harness.registry import make_prefetcher

    grid = bench_grid(quick)
    config = REDUCED_CONFIG
    bench_started = perf_counter()

    cells: list[dict[str, Any]] = []
    trace_build = {"seconds": 0.0, "events": 0}
    total_events = 0
    total_sim_seconds = 0.0
    for workload in grid.workloads:
        started = perf_counter()
        trace = _bench_trace(workload, grid)
        trace_build["seconds"] += perf_counter() - started
        trace_build["events"] += len(trace)
        events = len(trace)
        for name in grid.prefetchers:
            prefetcher = make_prefetcher(name)
            started = perf_counter()
            result = simulate(config, prefetcher, trace)
            seconds = perf_counter() - started
            result.prefetcher = name
            cells.append({
                "workload": workload,
                "prefetcher": name,
                "events": events,
                "wall_seconds": seconds,
                "events_per_second": events / seconds if seconds else 0.0,
                "result_digest": result_digest(result),
            })
            total_events += events
            total_sim_seconds += seconds
        if progress is not None:
            progress(workload)

    document: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "grid": grid.to_dict(),
        "config": "reduced",
        "totals": {
            "cells": len(cells),
            "events": total_events,
            "sim_seconds": total_sim_seconds,
            "events_per_second": (
                total_events / total_sim_seconds if total_sim_seconds else 0.0
            ),
        },
        "trace_build": trace_build,
        "cells": cells,
    }
    if cache_phase:
        document["result_cache"] = _cache_replay(grid, config)
    document["totals"]["wall_seconds"] = perf_counter() - bench_started
    if obs.enabled():
        document["profile"] = obs.snapshot()
    return document


def embed_baseline(document: dict[str, Any],
                   baseline: dict[str, Any],
                   path: str | None = None) -> None:
    """Attach a prior run's totals (and the speedup against them)."""
    old = baseline.get("totals", {}).get("events_per_second", 0.0)
    new = document.get("totals", {}).get("events_per_second", 0.0)
    document["baseline"] = {
        "path": path,
        "totals": baseline.get("totals", {}),
        "grid": baseline.get("grid", {}),
        "speedup": new / old if old else None,
    }


def _grid_matches(document: dict[str, Any],
                  baseline: dict[str, Any]) -> bool:
    return document.get("grid") == baseline.get("grid")


def check_bench(document: dict[str, Any], baseline: dict[str, Any],
                tolerance: float = 0.30) -> list[str]:
    """Compare a bench run against a baseline; returns the problems.

    Throughput regressions beyond ``tolerance`` fail; result digests
    must match exactly (same grid only) because simulations are
    deterministic — a digest drift means behaviour changed, which is a
    correctness finding, not noise.
    """
    problems: list[str] = []
    if baseline.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
        return problems
    if baseline.get("schema_version") != document.get("schema_version"):
        problems.append(
            f"baseline schema_version {baseline.get('schema_version')} != "
            f"{document.get('schema_version')}; regenerate the baseline"
        )
        return problems

    old = baseline.get("totals", {}).get("events_per_second", 0.0)
    new = document.get("totals", {}).get("events_per_second", 0.0)
    floor = old * (1.0 - tolerance)
    if old and new < floor:
        problems.append(
            f"throughput regression: {new:,.0f} events/sec < "
            f"{floor:,.0f} (baseline {old:,.0f} - {tolerance:.0%})"
        )

    if not _grid_matches(document, baseline):
        problems.append(
            "note: grids differ; result digests not compared"
        )
        return problems
    old_digests = {
        (cell["workload"], cell["prefetcher"]): cell["result_digest"]
        for cell in baseline.get("cells", [])
    }
    for cell in document.get("cells", []):
        key = (cell["workload"], cell["prefetcher"])
        expected = old_digests.get(key)
        if expected is not None and expected != cell["result_digest"]:
            problems.append(
                f"result drift in {key[0]} × {key[1]}: digest "
                f"{cell['result_digest']} != baseline {expected} "
                "(simulated behaviour changed)"
            )
    return problems


def render_bench(document: dict[str, Any]) -> str:
    """Terminal summary of one bench document."""
    totals = document["totals"]
    grid = document["grid"]
    lines = [
        f"repro bench ({grid['mode']} grid: {len(grid['workloads'])} "
        f"workloads x {len(grid['prefetchers'])} prefetchers, "
        f"budget {grid['budget_fraction']})",
        "-" * 64,
        f"  cells:            {totals['cells']}",
        f"  events simulated: {totals['events']:,}",
        f"  sim wall time:    {totals['sim_seconds']:.2f}s",
        f"  events/sec:       {totals['events_per_second']:,.0f}",
        f"  trace build:      {document['trace_build']['seconds']:.2f}s "
        f"({document['trace_build']['events']:,} events)",
        f"  total wall time:  {totals['wall_seconds']:.2f}s",
    ]
    cache = document.get("result_cache")
    if cache:
        lines.append(
            f"  result cache:     cold {cache['cold_seconds']:.2f}s "
            f"(hit rate {cache['cold_hit_rate']:.0%}), warm "
            f"{cache['warm_seconds']:.2f}s "
            f"(hit rate {cache['warm_hit_rate']:.0%})"
        )
    baseline = document.get("baseline")
    if baseline and baseline.get("speedup") is not None:
        lines.append(
            f"  vs baseline:      {baseline['speedup']:.2f}x events/sec "
            f"({baseline['totals'].get('events_per_second', 0):,.0f} -> "
            f"{totals['events_per_second']:,.0f})"
        )
    slowest = sorted(document["cells"], key=lambda c: c["wall_seconds"],
                     reverse=True)[:5]
    lines.append("  slowest cells:")
    for cell in slowest:
        lines.append(
            f"    {cell['workload']:<26} {cell['prefetcher']:<10} "
            f"{cell['wall_seconds']:6.2f}s "
            f"{cell['events_per_second']:>10,.0f} ev/s"
        )
    return "\n".join(lines)


def write_bench(document: dict[str, Any], path: str | Path) -> None:
    """Write the document as stable, diff-friendly JSON."""
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read a bench document previously written by :func:`write_bench`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
