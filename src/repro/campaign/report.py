"""Deterministic campaign artifacts: ``campaign.json`` + ``campaign.html``.

The JSON report is the campaign's *answer*: spec echo, planning
coverage, per-cell metrics, per-axis sensitivity curves, winner maps,
and the refinement trail.  It is schema-versioned and — by careful
exclusion — a pure function of the spec and the (deterministic)
simulation results: no timestamps, wall times, cache-hit counters, or
campaign ids appear in it, so a campaign killed mid-wave and resumed
produces a byte-identical ``campaign.json`` to an uninterrupted run.
That property is asserted by the CI ``campaign-smoke`` job with a plain
``cmp``.

Run-dependent provenance (wall seconds, cache hits, resume count, the
campaign id) goes to the side file ``stats.json`` instead, and the HTML
report is generated *from* the deterministic JSON: self-contained
(inline SVG, no scripts, no external assets), one sensitivity chart per
(axis, workload) with a winner strip underneath, plus the coverage and
refinement tables.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.refine import metric_surface
from repro.campaign.runner import CampaignOutcome

#: Identifies the campaign.json document family.
CAMPAIGN_SCHEMA = "repro.campaign"

#: Version of the campaign.json layout; bump on any field change.
CAMPAIGN_SCHEMA_VERSION = 1


def build_report(outcome: CampaignOutcome) -> dict[str, Any]:
    """The deterministic ``campaign.json`` document for one outcome."""
    spec = outcome.spec
    metric = spec.refine.metric
    first, second = spec.refine.competitors

    waves = [
        {"wave": index, **plan.stats()}
        for index, plan in enumerate(outcome.waves)
    ]
    totals = {
        "candidates": sum(w["candidates"] for w in waves),
        "pruned": sum(w["pruned"] for w in waves),
        "deduplicated": sum(w["deduplicated"] for w in waves),
        "unique": sum(w["unique"] for w in waves),
        "quarantined": len(outcome.quarantined_keys),
    }

    cells = []
    for plan in outcome.waves:
        for cell, key in zip(plan.cells, plan.keys):
            entry: dict[str, Any] = {
                "workload": cell.workload,
                "prefetcher": cell.prefetcher,
                "coords": [[axis, value] for axis, value in cell.coords],
                "key": key,
                "wave": cell.wave,
            }
            result = outcome.results.get(key)
            if result is not None:
                entry["ipc"] = result.ipc
                entry["mpki"] = result.mpki
            else:
                entry["quarantined"] = True
            cells.append(entry)

    numeric_axes = [
        axis for axis in spec.axes
        if axis.combine == "cross"
        and all(isinstance(v, (int, float)) for v in axis.values)
    ]
    curves: dict[str, Any] = {}
    winner_maps: dict[str, Any] = {}
    for axis in numeric_axes:
        surface = metric_surface(
            outcome.samples, outcome.results, axis.name, metric)
        axis_curves = []
        axis_winners = []
        for (workload, context) in sorted(surface):
            competitors = surface[(workload, context)]
            group = {
                "workload": workload,
                "context": [[name, value] for name, value in context],
                "series": {
                    base: sorted(
                        [value, competitors[base][value]]
                        for value in competitors[base]
                    )
                    for base in sorted(competitors)
                },
            }
            axis_curves.append(group)
            series_a = competitors.get(first, {})
            series_b = competitors.get(second, {})
            shared = sorted(set(series_a) & set(series_b))
            if shared:
                axis_winners.append({
                    "workload": workload,
                    "context": [[name, value] for name, value in context],
                    "points": [
                        [value, _winner(series_a[value], series_b[value],
                                        first, second, metric)]
                        for value in shared
                    ],
                })
        curves[axis.name] = axis_curves
        winner_maps[axis.name] = axis_winners

    return {
        "schema": CAMPAIGN_SCHEMA,
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "name": spec.name,
        "fingerprint": outcome.fingerprint,
        "spec": spec.to_dict(),
        "status": outcome.status,
        "planning": {"waves": waves, "totals": totals},
        "cells": cells,
        "quarantined_keys": sorted(outcome.quarantined_keys),
        "metric": metric,
        "competitors": [first, second],
        "curves": curves,
        "winner_maps": winner_maps,
        "refinement": {
            "enabled": spec.refine.enabled,
            "waves": len(outcome.waves) - 1,
            "intervals": [
                interval.to_dict() for interval in outcome.intervals
            ],
        },
    }


def _winner(value_a: float, value_b: float, first: str, second: str,
            metric: str) -> str | None:
    from repro.campaign.spec import REFINE_METRICS

    delta = (value_a - value_b) * REFINE_METRICS[metric]
    if delta > 0:
        return first
    if delta < 0:
        return second
    return None


def write_report(outcome: CampaignOutcome,
                 directory: str | Path | None = None) -> dict[str, Path]:
    """Write campaign.json, campaign.html, and stats.json.

    ``campaign.json``/``campaign.html`` are deterministic;
    ``stats.json`` carries the run-dependent provenance.  Returns the
    written paths by artifact name.
    """
    directory = Path(directory) if directory is not None \
        else outcome.directory
    directory.mkdir(parents=True, exist_ok=True)
    report = build_report(outcome)
    json_path = directory / "campaign.json"
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    html_path = directory / "campaign.html"
    html_path.write_text(render_html(report))
    stats_path = directory / "stats.json"
    stats_path.write_text(json.dumps(
        {"campaign_id": outcome.campaign_id, **outcome.execution},
        indent=2, sort_keys=True) + "\n")
    return {"json": json_path, "html": html_path, "stats": stats_path}


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf"]

_CHART_WIDTH = 460
_CHART_HEIGHT = 200
_MARGIN = 42


def render_html(report: Mapping[str, Any]) -> str:
    """A self-contained static HTML page for one campaign report."""
    title = html.escape(str(report.get("name", "campaign")))
    totals = report["planning"]["totals"]
    metric = report["metric"]
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>campaign: {title}</title>",
        "<style>",
        "body{font:14px/1.5 system-ui,sans-serif;margin:2em;"
        "max-width:64em}",
        "h1,h2,h3{font-weight:600}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #ccc;padding:.3em .7em;text-align:right}",
        "th{background:#f4f4f4}",
        "td:first-child,th:first-child{text-align:left}",
        ".chart{margin:1.2em 0}",
        ".legend span{margin-right:1.2em}",
        ".swatch{display:inline-block;width:.8em;height:.8em;"
        "margin-right:.3em;vertical-align:middle}",
        "</style></head><body>",
        f"<h1>Campaign: {title}</h1>",
        f"<p>Status: <b>{html.escape(str(report['status']))}</b> &middot; "
        f"schema {report['schema']} v{report['schema_version']} &middot; "
        f"metric <b>{html.escape(metric)}</b></p>",
        "<h2>Coverage</h2>",
        "<table><tr><th>candidates</th><th>pruned</th>"
        "<th>deduplicated (compute saved)</th><th>unique cells</th>"
        "<th>quarantined</th></tr>",
        f"<tr><td>{totals['candidates']}</td><td>{totals['pruned']}</td>"
        f"<td>{totals['deduplicated']}</td><td>{totals['unique']}</td>"
        f"<td>{totals['quarantined']}</td></tr></table>",
        _waves_table(report),
    ]
    for axis_name in sorted(report["curves"]):
        parts.append(f"<h2>Axis: {html.escape(axis_name)}</h2>")
        winners_by_group = {
            (entry["workload"], _context_key(entry["context"])):
                entry["points"]
            for entry in report["winner_maps"].get(axis_name, [])
        }
        for group in report["curves"][axis_name]:
            parts.append(_chart(axis_name, group, metric, winners_by_group))
    parts.append(_refinement_table(report))
    parts.append("</body></html>\n")
    return "\n".join(parts)


def _context_key(context: list) -> tuple:
    return tuple((name, value) for name, value in context)


def _waves_table(report: Mapping[str, Any]) -> str:
    rows = "".join(
        f"<tr><td>{w['wave']}</td><td>{w['candidates']}</td>"
        f"<td>{w['pruned']}</td><td>{w['deduplicated']}</td>"
        f"<td>{w['unique']}</td></tr>"
        for w in report["planning"]["waves"]
    )
    return (
        "<h3>Waves</h3><table><tr><th>wave</th><th>candidates</th>"
        "<th>pruned</th><th>deduplicated</th><th>unique</th></tr>"
        f"{rows}</table>"
    )


def _refinement_table(report: Mapping[str, Any]) -> str:
    intervals = report["refinement"]["intervals"]
    if not intervals:
        return "<h2>Refinement</h2><p>No intervals subdivided.</p>"
    rows = "".join(
        f"<tr><td>{html.escape(i['axis'])}</td>"
        f"<td>{html.escape(i['workload'])}</td>"
        f"<td>{i['lo']}&ndash;{i['hi']}</td><td>{i['midpoint']}</td>"
        f"<td>{html.escape(i['reason'])}</td></tr>"
        for i in intervals
    )
    return (
        "<h2>Refinement</h2><table><tr><th>axis</th><th>workload</th>"
        "<th>interval</th><th>midpoint</th><th>trigger</th></tr>"
        f"{rows}</table>"
    )


def _chart(axis_name: str, group: Mapping[str, Any], metric: str,
           winners_by_group: Mapping[tuple, list]) -> str:
    """One inline-SVG sensitivity chart with its winner strip."""
    series = group["series"]
    workload = group["workload"]
    context = group["context"]
    points = [p for pairs in series.values() for p in pairs]
    if not points:
        return ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = _CHART_WIDTH - 2 * _MARGIN
    plot_h = _CHART_HEIGHT - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return _CHART_HEIGHT - _MARGIN - (y - y_lo) / y_span * plot_h

    svg = [
        f"<svg width='{_CHART_WIDTH}' height='{_CHART_HEIGHT + 26}' "
        "xmlns='http://www.w3.org/2000/svg'>",
        f"<rect x='{_MARGIN}' y='{_MARGIN}' width='{plot_w}' "
        f"height='{plot_h}' fill='none' stroke='#999'/>",
        f"<text x='{_MARGIN}' y='{_MARGIN - 8}' font-size='11' "
        f"fill='#444'>{html.escape(metric)}: {y_lo:.4g} &#8211; "
        f"{y_hi:.4g}</text>",
        f"<text x='{_MARGIN}' y='{_CHART_HEIGHT - _MARGIN + 16}' "
        f"font-size='11' fill='#444'>{html.escape(axis_name)}: "
        f"{x_lo:g} &#8211; {x_hi:g}</text>",
    ]
    legend = []
    for index, base in enumerate(sorted(series)):
        color = _PALETTE[index % len(_PALETTE)]
        pairs = series[base]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pairs)
        svg.append(
            f"<polyline points='{path}' fill='none' stroke='{color}' "
            "stroke-width='1.5'/>"
        )
        for x, y in pairs:
            svg.append(
                f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='2.5' "
                f"fill='{color}'/>"
            )
        legend.append(
            f"<span><span class='swatch' style='background:{color}'>"
            f"</span>{html.escape(base)}</span>"
        )
    winners = winners_by_group.get((workload, _context_key(context)), [])
    strip_y = _CHART_HEIGHT - _MARGIN + 20
    for value, winner in winners:
        color = "#bbb"
        for index, base in enumerate(sorted(series)):
            if base == winner:
                color = _PALETTE[index % len(_PALETTE)]
        svg.append(
            f"<rect x='{sx(value) - 4:.1f}' y='{strip_y}' width='8' "
            f"height='8' fill='{color}'/>"
        )
    svg.append("</svg>")
    context_text = ", ".join(f"{name}={value}" for name, value in context)
    caption = html.escape(
        f"{workload}" + (f"  [{context_text}]" if context_text else ""))
    return (
        f"<div class='chart'><h3>{caption}</h3>"
        f"<div class='legend'>{''.join(legend)}</div>"
        f"{''.join(svg)}</div>"
    )
