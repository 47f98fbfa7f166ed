"""Per-layer metrics of a traced run, and the checks on them.

Every traced run prints every metric in :data:`PER_LAYER`; a layer the
workload does not reach reads zero (on fig14-warm that is the whole
simulator: ``sim.*``, ``memory.*`` and ``prefetchers.*``).
"""

from __future__ import annotations

from tracer import HOOKS, Tracer, metric_prefetcher_name, wrapper_cost_seconds

#: The paper's seven prefetchers, in Figure 14 order.
PREFETCHERS = ("no-prefetch", "stride", "ghb-pc/dc", "ghb-g/dc", "sms",
               "cbws", "cbws+sms")
_NAMES = [metric_prefetcher_name(name) for name in PREFETCHERS]

#: Layers reported as ``<label>_s`` (inclusive seconds) and ``<label>_calls``.
_TIMED = ("workloads.build_trace", "trace.columns", "trace.read",
          "trace.write", "sim.run", "memory.demand_access",
          "memory.prefetch_fill", "exec.sim_key", "exec.cache_get",
          "exec.cache_put", "exec.journal_append")

#: Counters read from the server's ``/metrics`` (delta over the run).
SERVE_COUNTERS = ("serve.cells_executed", "serve.cache_hits",
                  "serve.deduplicated", "serve.rejected", "serve.batches")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    *[(f"{label}{suffix}", unit) for label in _TIMED
      for suffix, unit in (("_s", "s"), ("_calls", "count"))],
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("memory.l1_miss_ratio", "ratio"),
    *[(f"prefetchers.{name}.hooks_s", "s") for name in _NAMES],
    ("prefetchers.cbws.on_block_end_s", "s"),
    ("prefetchers.cbws-sms.on_block_end_s", "s"),
    *[(f"prefetchers.{name}.accuracy", "ratio") for name in _NAMES],
    *[(f"prefetchers.{name}.mpki", "mpki") for name in _NAMES],
    ("exec.cache_hit_ratio", "ratio"),
    ("harness.render_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.wait_s", "s"),
    *[(name, "count") for name in SERVE_COUNTERS],
    ("tracing.wrapped_calls", "count"),
    ("tracing.wrapper_cost_us", "us"),
    ("tracing.overhead_s", "s"),
]

#: Relative tolerance of the layer-sum check (float summation order).
SUM_TOLERANCE = 1e-6


def layer_metrics(tracer: Tracer, untraced_wall: float,
                  traced_wall: float) -> tuple[dict, list[str], list[str]]:
    """(metrics, report lines, failures) of one traced run."""
    totals = tracer.totals()
    metrics = {name: 0.0 for name, _ in PER_LAYER}

    def seconds(label: str) -> float:
        return totals.get(label, (0, 0.0, 0.0))[1]

    for label in _TIMED:
        calls, inclusive, _ = totals.get(label, (0, 0.0, 0.0))
        metrics[f"{label}_s"] = inclusive
        metrics[f"{label}_calls"] = calls
    metrics["sim.self_s"] = totals.get("sim.run", (0, 0.0, 0.0))[2]
    metrics["harness.render_s"] = seconds("harness.render")
    metrics["serve.submit_s"] = seconds("serve.submit")
    metrics["serve.wait_s"] = seconds("serve.wait")

    sim = tracer.sim
    metrics["sim.events"] = sim.events
    if sim.demand_accesses:
        metrics["memory.l1_miss_ratio"] = sim.l1_misses / sim.demand_accesses
    for raw, name in zip(PREFETCHERS, _NAMES):
        metrics[f"prefetchers.{name}.hooks_s"] = sum(
            seconds(f"prefetchers.{name}.{hook}") for hook in HOOKS)
        issued, useful, llc_misses, instructions = sim.by_prefetcher.get(
            raw, (0, 0, 0, 0))
        if issued:
            metrics[f"prefetchers.{name}.accuracy"] = useful / issued
        if instructions:
            metrics[f"prefetchers.{name}.mpki"] = (
                1000.0 * llc_misses / instructions)
    for name in ("cbws", "cbws-sms"):
        metrics[f"prefetchers.{name}.on_block_end_s"] = seconds(
            f"prefetchers.{name}.on_block_end")
    if tracer.cache_gets:
        metrics["exec.cache_hit_ratio"] = tracer.cache_hits / tracer.cache_gets

    wrapped_calls = sum(row[0] for row in totals.values())
    cost = wrapper_cost_seconds()
    metrics["tracing.wrapped_calls"] = wrapped_calls
    metrics["tracing.wrapper_cost_us"] = cost * 1e6
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall

    failures = []
    accounted = (metrics["sim.self_s"]
                 + metrics["memory.demand_access_s"]
                 + metrics["memory.prefetch_fill_s"]
                 + metrics["trace.columns_s"]
                 + sum(metrics[f"prefetchers.{name}.hooks_s"]
                       for name in _NAMES))
    residual = metrics["sim.run_s"] - accounted
    if abs(residual) > SUM_TOLERANCE * max(1.0, metrics["sim.run_s"]):
        failures.append(
            f"layer sum check: sim.self_s + memory + hooks + columns = "
            f"{accounted:.9f} s but sim.run_s = {metrics['sim.run_s']:.9f} s")
    unlisted = sorted({child for (parent, child) in tracer.children()
                       if parent == "sim.run"
                       and child != "trace.columns"
                       and not child.startswith(("memory.", "prefetchers."))})
    if unlisted:
        failures.append("layers inside sim.run missing from the table: "
                        + ", ".join(unlisted))

    notes = _layer_table(totals, traced_wall)
    notes.append(f"layer sum: sim.run_s {metrics['sim.run_s']:.6f} s = "
                 f"self + memory + hooks + columns (residual "
                 f"{residual:.3e} s)")
    notes.append(
        f"tracing: {wrapped_calls} wrapped calls x {cost * 1e6:.3f} us = "
        f"{wrapped_calls * cost:.3f} s estimated; measured overhead "
        f"{traced_wall - untraced_wall:.3f} s (traced {traced_wall:.3f} s "
        f"- untraced {untraced_wall:.3f} s). Shares of per-event layers "
        f"include their wrapper cost.")
    return metrics, notes, failures


def _layer_table(totals: dict, traced_wall: float) -> list[str]:
    lines = [f"{'layer':<40} {'calls':>10} {'incl_s':>10} {'self_s':>10} "
             f"{'self%':>6}"]
    for label in sorted(totals, key=lambda item: -totals[item][2]):
        calls, inclusive, own = totals[label]
        share = 100.0 * own / traced_wall if traced_wall else 0.0
        lines.append(f"{label:<40} {calls:>10} {inclusive:>10.4f} "
                     f"{own:>10.4f} {share:>6.1f}")
    return lines
