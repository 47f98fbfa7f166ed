"""Prometheus text-format rendering of the probe registry.

``repro serve`` exposes a ``/metrics`` endpoint; this module turns an
:func:`repro.obs.snapshot` dict (plus any caller-supplied counters and
gauges, e.g. the serve broker's admission statistics) into the
`Prometheus text exposition format`_ using only the stdlib.

Mapping rules:

* counters   -> ``<prefix>_<name>_total`` (TYPE counter)
* gauges     -> ``<prefix>_<name>`` (TYPE gauge)
* phases     -> ``<prefix>_<name>_seconds_total`` (counter) and
  ``<prefix>_<name>_count`` (counter)
* values     -> ``<prefix>_<name>_{min,mean,max}`` (gauges)

Dots and other non-identifier characters in probe names become
underscores, so ``exec.cache_hits`` exports as
``repro_exec_cache_hits_total``.

.. _Prometheus text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitize one probe name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name.strip())
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _emit(lines: list[str], name: str, kind: str, value: float,
          help_text: str | None = None) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    lines.append(f"{name} {_format_value(value)}")


def render_prometheus(
    snapshot: Mapping[str, Any] | None = None,
    *,
    counters: Mapping[str, float] | None = None,
    gauges: Mapping[str, float] | None = None,
    prefix: str = "repro",
) -> str:
    """Render one scrape of the probe registry as Prometheus text.

    Args:
        snapshot: an :func:`repro.obs.snapshot` dict; ``None`` means
            "no probe data" (only the extra counters/gauges export).
        counters / gauges: extra metrics merged in under the same
            prefix, e.g. the serve broker's request statistics.
        prefix: metric-name prefix (no trailing underscore).
    """
    lines: list[str] = []
    snapshot = snapshot or {}

    merged_counters: dict[str, float] = dict(snapshot.get("counters", {}))
    for name, value in (counters or {}).items():
        merged_counters[name] = merged_counters.get(name, 0) + value
    for name in sorted(merged_counters):
        _emit(lines, f"{metric_name(name, prefix)}_total", "counter",
              merged_counters[name])

    merged_gauges: dict[str, float] = dict(snapshot.get("gauges", {}))
    merged_gauges.update(gauges or {})
    for name in sorted(merged_gauges):
        _emit(lines, metric_name(name, prefix), "gauge",
              merged_gauges[name])

    for name in sorted(snapshot.get("phases", {})):
        stat = snapshot["phases"][name]
        base = metric_name(name, prefix)
        _emit(lines, f"{base}_seconds_total", "counter",
              stat.get("total_seconds", 0.0))
        _emit(lines, f"{base}_count", "counter", stat.get("count", 0))

    for name in sorted(snapshot.get("values", {})):
        stat = snapshot["values"][name]
        base = metric_name(name, prefix)
        _emit(lines, f"{base}_min", "gauge", stat.get("min", 0.0))
        _emit(lines, f"{base}_mean", "gauge", stat.get("mean", 0.0))
        _emit(lines, f"{base}_max", "gauge", stat.get("max", 0.0))

    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{metric: value}``.

    The inverse of :func:`render_prometheus` for *this module's* output
    (single samples, no labels); the load generator uses it to diff a
    server's ``/metrics`` before and after a run.
    """
    metrics: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        try:
            metrics[name] = float(value)
        except ValueError:
            continue
    return metrics
