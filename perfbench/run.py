"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig14-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the separate traced pass and prints the per-layer
metrics.  Report lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn and prints their results
merged (metric names prefixed with the workload).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import WORK, Outcome, remove_work_dirs, use_program

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("cells_per_s", "cells/s"),
    ("rtt_p50_s", "s"),
    ("rtt_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_fraction", "ratio"),
]

WORKLOADS = ("fig14-cold", "fig14-warm", "serve-mixed")


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Outcome:
    """Run one workload in this process (the program must be importable)."""
    from fig14 import run_cold, run_warm
    from serve_mixed import run_serve

    runner = {"fig14-cold": run_cold, "fig14-warm": run_warm,
              "serve-mixed": run_serve}[name]
    return runner(seed, seconds, traced)


def result_document(outcome: Outcome, traced: bool) -> dict:
    """The result line: every declared metric of the mode, with units."""
    from layers import PER_LAYER

    declared = PER_LAYER if traced else END_TO_END
    values = dict(outcome.metrics)
    if not traced:
        values["ok_fraction"] = outcome.ok_fraction
    missing = [name for name, _ in declared if name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }


def _print_report(name: str, outcome: Outcome, document: dict) -> None:
    print(f"== {name}")
    for line in outcome.notes:
        print(line)
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}")
    for metric, entry in document["metrics"].items():
        print(f"{metric:<40} {entry['value']:>16.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_program()

    traced = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    documents = {}
    for name in names:
        started = time.perf_counter()
        try:
            outcome = run_workload(name, args.seed, args.seconds, traced)
        finally:
            remove_work_dirs()
        document = result_document(outcome, traced)
        outcome.notes.append(f"run took {time.perf_counter() - started:.1f} s")
        _print_report(name, outcome, document)
        documents[name] = document
        if outcome.spans:
            WORK.mkdir(exist_ok=True)
            path = WORK / f"spans-{name}-seed{args.seed}.json"
            path.write_text(json.dumps(
                {"fields": ["id", "parent", "layer", "thread", "start_s",
                            "end_s"], "spans": outcome.spans}))
            print(f"spans: {path.relative_to(WORK.parent)}")

    if len(documents) == 1:
        final = documents[names[0]]
    else:
        final = {
            "correct": all(d["correct"] for d in documents.values()),
            "attempted": sum(d["attempted"] for d in documents.values()),
            "failed": sum(d["failed"] for d in documents.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, d in documents.items()
                        for metric, entry in d["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
