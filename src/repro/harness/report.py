"""Plain-text rendering of experiment results.

The paper's figures are bar charts and curves; these helpers render the
same data as aligned ASCII tables so every bench target can print the
rows it reproduces.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, Sequence

#: How a cell the execution engine could not produce is rendered.  The
#: scheduler marks such cells with NaN metrics (see
#: :meth:`repro.sim.results.SimResult.degraded_cell`); every table they
#: reach prints this marker instead of a misleading number.
DEGRADED_MARKER = "DEGRADED"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned table.

    Floats are formatted with ``float_format``; NaN floats (degraded
    grid cells) render as :data:`DEGRADED_MARKER`; everything else with
    ``str``.  The first column is left-aligned, the rest right-aligned.
    """
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float) and math.isnan(value):
                cells.append(DEGRADED_MARKER)
            elif isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)

    widths = [len(str(header)) for header in headers]
    for cells in rendered:
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        parts = [str(cells[0]).ljust(widths[0])]
        parts.extend(
            str(cell).rjust(width)
            for cell, width in zip(cells[1:], widths[1:])
        )
        return "  ".join(parts)

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line([str(h) for h in headers]))
    out.append("  ".join("-" * width for width in widths))
    out.extend(line(cells) for cells in rendered)
    return "\n".join(out)


def format_percent_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Like :func:`format_table` but floats render as percentages."""
    return format_table(headers, rows, title=title, float_format="{:6.1%}")


#: exec-stats rows: (summary key, human label, format).
_EXEC_STAT_ROWS = [
    ("jobs", "worker processes", "{:d}"),
    ("tasks_total", "tasks scheduled", "{:d}"),
    ("tasks_queued", "tasks queued", "{:d}"),
    ("tasks_running", "tasks running", "{:d}"),
    ("tasks_done", "tasks done", "{:d}"),
    ("cache_hits", "result-cache hits", "{:d}"),
    ("cache_misses", "result-cache misses", "{:d}"),
    ("traces_built", "traces built", "{:d}"),
    ("sims_run", "simulations run", "{:d}"),
    ("retries", "retries", "{:d}"),
    ("timeouts", "timeouts", "{:d}"),
    ("worker_crashes", "worker crashes", "{:d}"),
    ("resumed_cells", "cells resumed from journal", "{:d}"),
    ("degraded", "workloads degraded", "{:d}"),
    ("quarantined", "tasks quarantined", "{:d}"),
    ("mean_task_seconds", "mean task seconds", "{:.3f}"),
    ("eta_seconds", "eta seconds", "{:.1f}"),
    ("wall_seconds", "wall seconds", "{:.2f}"),
]


def format_exec_stats(summary: Mapping[str, object]) -> str:
    """Render an execution-telemetry summary (see ``repro exec-stats``).

    Accepts the mapping produced by
    :meth:`repro.exec.telemetry.ExecTelemetry.summary`; unknown keys are
    ignored so older snapshots still render.
    """
    rows: list[list[object]] = []
    for key, label, fmt in _EXEC_STAT_ROWS:
        if key in summary:
            rows.append([label, fmt.format(summary[key])])
    for name in summary.get("degraded_workloads") or []:
        rows.append(["degraded workload", str(name)])
    quarantined = summary.get("quarantined_tasks") or []
    for name in quarantined:
        rows.append(["quarantined task", str(name)])
    return format_table(["statistic", "value"], rows,
                        title="Grid execution statistics")


def format_run_list(summaries: Sequence[object]) -> str:
    """Render ``repro runs list`` rows.

    Accepts :class:`repro.exec.journal.RunSummary` objects (duck-typed
    so older snapshots and tests can pass simple namespaces).
    """
    rows: list[list[object]] = []
    for summary in summaries:
        started = getattr(summary, "started_at", None)
        stamp = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(started))
            if started else "-"
        )
        rows.append([
            getattr(summary, "run_id", "?"),
            getattr(summary, "status", "?"),
            f"{getattr(summary, 'cells_done', 0)}"
            f"/{getattr(summary, 'cells_total', 0)}",
            getattr(summary, "degraded", 0),
            getattr(summary, "quarantined", 0),
            getattr(summary, "torn_lines", 0),
            stamp,
        ])
    return format_table(
        ["run", "status", "cells", "degraded", "quarantined", "torn",
         "started"],
        rows,
        title="Journaled runs",
    )


def format_mapping(
    mapping: Mapping[str, float],
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a flat name -> value mapping as a two-column table."""
    rows = [[key, value] for key, value in mapping.items()]
    return format_table(["name", "value"], rows, title=title,
                        float_format=float_format)
