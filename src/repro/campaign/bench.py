"""``BENCH_campaign.json``: overhead benchmark of the campaign engine.

The engine's own machinery — spec expansion, constraint evaluation,
content-key hashing, cache dedup, journal append/replay — must stay
cheap relative to simulation, and this bench pins that: it plans and
runs the quick reference campaign (the 2-workload, 2-axis CBWS-vs-SMS
sensitivity sweep from EXPERIMENTS.md, shrunk to CI size), then
re-plans it against the warm cache, and reports planner throughput
(cells/sec), dedup ratios, journal size/replay cost, and the
winner-flip intervals refinement found.  ``repro campaign bench`` emits
the schema-versioned document for cross-PR trajectory tracking next to
``BENCH_sim_hotpath.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.campaign.planner import plan_campaign
from repro.campaign.report import build_report
from repro.campaign.runner import replay_campaign, run_campaign
from repro.campaign.spec import CampaignSpec, parse_spec
from repro.exec.cache import ResultCache

#: Schema identity of the emitted JSON document.
CAMPAIGN_BENCH_SCHEMA = "repro.bench.campaign"
CAMPAIGN_BENCH_VERSION = 1

#: The quick reference campaign: the paper's §VI history-size axis
#: (log2, 1..64) crossed with the prefetch-bandwidth knob, CBWS vs SMS,
#: tiny budget.  ``md-linpack`` is the interesting workload: SMS beats a
#: history-starved CBWS up through 32 table entries and loses at 64, so
#: refinement must find the crossover inside [32, 64]; ``429.mcf-ref``
#: is the control where CBWS dominates everywhere.  2 x 2 x 7 x 4 = 112
#: candidates; the sms cells collapse along the cbws axis, leaving 64
#: unique cells — exactly the dedup behaviour the bench tracks.
QUICK_CAMPAIGN_DOCUMENT: dict[str, Any] = {
    "version": 1,
    "name": "quick-history-sensitivity",
    "base": {
        "workloads": ["md-linpack", "429.mcf-ref"],
        "prefetchers": ["sms", "cbws"],
        "budget_fraction": 0.05,
        "seed": 0,
    },
    "axes": [
        {"name": "cbws.table_entries", "log2_range": [1, 64]},
        {"name": "prefetch.issue_interval", "values": [2, 4, 8, 16]},
    ],
    "refine": {
        "metric": "ipc",
        "axes": ["cbws.table_entries"],
        "competitors": ["cbws", "sms"],
        "max_cells": 32,
        "max_waves": 2,
    },
}


def quick_campaign_spec() -> CampaignSpec:
    """The parsed quick reference campaign."""
    return parse_spec(QUICK_CAMPAIGN_DOCUMENT)


def run_campaign_bench(
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the quick reference campaign and measure engine overhead.

    The campaign runs in a private temporary cache, deleted on return,
    so the execute phase always simulates every cell.
    """
    spec = quick_campaign_spec()
    temporary = tempfile.TemporaryDirectory(prefix="repro-campaign-bench-")
    root = Path(temporary.name)
    bench_started = perf_counter()
    try:
        if progress is not None:
            progress("plan (cold)")
        started = perf_counter()
        cold_plan = plan_campaign(spec)
        cold_plan_seconds = perf_counter() - started

        if progress is not None:
            progress("execute")
        started = perf_counter()
        outcome = run_campaign(spec, root, jobs=jobs)
        execute_seconds = perf_counter() - started
        report = build_report(outcome)

        if progress is not None:
            progress("plan (warm cache)")
        cache = ResultCache(root / "results")
        started = perf_counter()
        warm_plan = plan_campaign(spec, cache=cache)
        warm_plan_seconds = perf_counter() - started
        cache.close()

        if progress is not None:
            progress("journal replay")
        journal_path = outcome.directory / "journal.jsonl"
        started = perf_counter()
        replayed = replay_campaign(journal_path)
        replay_seconds = perf_counter() - started
        journal_bytes = journal_path.stat().st_size

        flips = [
            interval for interval in outcome.intervals
            if interval.reason == "winner-flip"
        ]
        totals = report["planning"]["totals"]
        document: dict[str, Any] = {
            "schema": CAMPAIGN_BENCH_SCHEMA,
            "schema_version": CAMPAIGN_BENCH_VERSION,
            "spec": spec.to_dict(),
            "planning": {
                "cold_seconds": cold_plan_seconds,
                "warm_seconds": warm_plan_seconds,
                "candidates": cold_plan.candidates,
                "unique": cold_plan.unique,
                "deduplicated": cold_plan.deduplicated,
                "pruned": cold_plan.pruned,
                "candidates_per_second": (
                    cold_plan.candidates / cold_plan_seconds
                    if cold_plan_seconds else 0.0
                ),
                "warm_cached_cells": len(warm_plan.cached_keys),
            },
            "execution": {
                "seconds": execute_seconds,
                "waves": len(outcome.waves),
                "cells_total": totals["unique"],
                "cells_deduplicated": totals["deduplicated"],
                "quarantined": totals["quarantined"],
                "cache_hits": outcome.execution.get("cache_hits", 0),
                "sims_run": outcome.execution.get("sims_run", 0),
            },
            "refinement": {
                "intervals": len(outcome.intervals),
                "winner_flips": len(flips),
                "flip_axes": sorted({f.axis for f in flips}),
            },
            "journal": {
                "bytes": journal_bytes,
                "records": replayed.records,
                "replay_seconds": replay_seconds,
            },
            "status": outcome.status,
        }
        document["totals"] = {
            "wall_seconds": perf_counter() - bench_started,
        }
        return document
    finally:
        temporary.cleanup()


def render_campaign_bench(document: dict[str, Any]) -> str:
    """Terminal summary of one campaign-bench document."""
    planning = document["planning"]
    execution = document["execution"]
    refinement = document["refinement"]
    journal = document["journal"]
    lines = [
        f"repro campaign bench ({document['spec']['name']})",
        "-" * 64,
        f"  plan (cold):      {planning['cold_seconds']*1000:7.1f} ms  "
        f"({planning['candidates']} candidates -> "
        f"{planning['unique']} unique, "
        f"{planning['deduplicated']} deduplicated, "
        f"{planning['pruned']} pruned)",
        f"  plan (warm):      {planning['warm_seconds']*1000:7.1f} ms  "
        f"({planning['warm_cached_cells']} cell(s) already cached)",
        f"  planner rate:     {planning['candidates_per_second']:,.0f} "
        "candidates/sec",
        f"  execute:          {execution['seconds']:7.2f} s   "
        f"({execution['waves']} wave(s), {execution['cells_total']} "
        f"cell(s), {execution['sims_run']} simulated, "
        f"{execution['cache_hits']} cache hit(s))",
        f"  refinement:       {refinement['intervals']} interval(s), "
        f"{refinement['winner_flips']} winner flip(s) on "
        f"{', '.join(refinement['flip_axes']) or 'no axis'}",
        f"  journal:          {journal['bytes']:,} bytes, "
        f"{journal['records']} record(s), replay "
        f"{journal['replay_seconds']*1000:.1f} ms",
        f"  status:           {document['status']}",
        f"  total wall time:  {document['totals']['wall_seconds']:.2f} s",
    ]
    return "\n".join(lines)
