"""Differential checks for the external-trace ingest frontend.

Two properties make ``ext:`` workloads safe to cache and share, and
both are verified here rather than assumed:

* **Recovery determinism** — the back-edge recovery pass, run twice
  over the same decoded instruction stream, emits identical events and
  identical stats.  The recovery tables are all deterministic data
  structures, but a single iteration-order or tie-break slip would
  break block-id stability silently; the differential catches it.
* **Re-ingestion digest stability** — ingesting the same source file
  into two fresh stores yields byte-identical trace files and equal
  content digests.  This is the property every cache key derived from
  an ``ext:`` workload rests on.

Both functions return a list of human-readable divergence strings
(empty = clean), matching the :mod:`repro.check.diff` convention.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.ingest.convert import ingest_trace
from repro.ingest.formats import decode
from repro.ingest.recover import RecoveryConfig, RecoveryStats, recover_blocks


def check_recovery_determinism(
    source: str | Path,
    fmt: str | None = None,
    config: RecoveryConfig | None = None,
) -> list[str]:
    """Run recovery twice over ``source``; report any divergence."""
    problems: list[str] = []
    runs = []
    for _ in range(2):
        stats = RecoveryStats()
        events = list(recover_blocks(decode(source, fmt), config, stats))
        runs.append((events, stats))
    (events_a, stats_a), (events_b, stats_b) = runs
    if len(events_a) != len(events_b):
        problems.append(
            f"recovery nondeterminism: {len(events_a)} vs "
            f"{len(events_b)} events across identical runs"
        )
    else:
        for index, (a, b) in enumerate(zip(events_a, events_b)):
            if a != b:
                problems.append(
                    f"recovery nondeterminism at event {index}: "
                    f"{a!r} vs {b!r}"
                )
                break
    for attribute in ("accesses", "accesses_in_blocks", "block_instances",
                      "block_ids", "back_edges_taken", "edges_observed",
                      "edges_evicted"):
        left = getattr(stats_a, attribute)
        right = getattr(stats_b, attribute)
        if left != right:
            problems.append(
                f"recovery stats diverge on {attribute}: {left} vs {right}"
            )
    return problems


def check_reingest_stability(
    source: str | Path,
    fmt: str | None = None,
    config: RecoveryConfig | None = None,
) -> list[str]:
    """Ingest ``source`` twice into fresh directories; compare outputs."""
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-ingest-check-") as scratch:
        outputs = []
        for attempt in range(2):
            out = Path(scratch) / f"attempt-{attempt}.trace"
            result = ingest_trace(
                source, out, trace_name="ext:check",
                fmt=fmt, config=config,
            )
            outputs.append((result, out.read_bytes()))
        (result_a, bytes_a), (result_b, bytes_b) = outputs
        if result_a.digest != result_b.digest:
            problems.append(
                f"re-ingestion digest drift: {result_a.digest[:12]} vs "
                f"{result_b.digest[:12]} for {source}"
            )
        if bytes_a != bytes_b:
            problems.append(
                f"re-ingestion produced different file bytes for {source} "
                f"({len(bytes_a)} vs {len(bytes_b)} bytes)"
            )
    return problems
