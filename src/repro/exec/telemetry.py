"""Execution telemetry: counters, per-task wall times, ETA, persistence.

One :class:`ExecTelemetry` instance accompanies each scheduled grid; the
scheduler updates it live (tasks queued/running/done, cache hits, retries,
crashes, quarantines) and persists a JSON snapshot next to the result
cache so ``python -m repro exec-stats`` can report on the last run from a
different process.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

logger = logging.getLogger("repro.exec")

#: The telemetry of the most recent :func:`repro.exec.scheduler.execute_grid`
#: call in this process (tests and interactive sessions read it back).
LAST_RUN: "ExecTelemetry | None" = None


@dataclass
class TaskTiming:
    """Wall time of one completed task attempt."""

    name: str
    kind: str
    seconds: float
    attempts: int


@dataclass
class ExecTelemetry:
    """Everything measured about one grid execution."""

    jobs: int = 1
    tasks_total: int = 0
    tasks_queued: int = 0
    tasks_running: int = 0
    tasks_done: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    traces_built: int = 0
    sims_run: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    resumed_cells: int = 0
    degraded: list[dict[str, Any]] = field(default_factory=list)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    task_times: list[TaskTiming] = field(default_factory=list)
    wall_seconds: float = 0.0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    # -- live updates -------------------------------------------------------

    def task_queued(self, count: int = 1) -> None:
        self.tasks_total += count
        self.tasks_queued += count

    def task_started(self, count: int = 1) -> None:
        self.tasks_queued = max(0, self.tasks_queued - count)
        self.tasks_running += count

    def task_finished(self, name: str, kind: str, seconds: float,
                      attempts: int) -> None:
        self.tasks_running = max(0, self.tasks_running - 1)
        self.tasks_done += 1
        self.task_times.append(TaskTiming(name, kind, seconds, attempts))

    def task_failed_attempt(self, count: int = 1) -> None:
        """Started attempts that ended without producing a result."""
        self.tasks_running = max(0, self.tasks_running - count)

    def quarantine(self, name: str, kind: str, reason: str,
                   attempts: int, classification: str = "permanent",
                   key: str | None = None) -> None:
        """Permanently give up on one poisoned task.

        A simulation's entry also names its result ``key``, which tells
        apart two cells of one name (one workload and prefetcher at two
        seeds or machine configs).
        """
        logger.error("quarantined %s after %d attempt(s) [%s]: %s",
                     name, attempts, classification, reason)
        entry = {
            "task": name, "kind": kind, "reason": reason,
            "attempts": attempts, "class": classification,
        }
        if key is not None:
            entry["key"] = key
        self.quarantined.append(entry)

    def degrade(self, workload: str, reason: str, failures: int) -> None:
        """Trip the circuit breaker for one workload."""
        logger.error("workload %s DEGRADED after %d permanent failure(s): %s",
                     workload, failures, reason)
        self.degraded.append({
            "workload": workload, "reason": reason, "failures": failures,
        })

    def is_degraded(self, workload: str) -> bool:
        return any(entry["workload"] == workload for entry in self.degraded)

    def finish(self) -> None:
        self.wall_seconds = time.perf_counter() - self._started

    # -- derived ------------------------------------------------------------

    @property
    def tasks_pending(self) -> int:
        return max(0, self.tasks_total - self.tasks_done - len(self.quarantined))

    def mean_task_seconds(self) -> float:
        if not self.task_times:
            return 0.0
        return sum(t.seconds for t in self.task_times) / len(self.task_times)

    def eta_seconds(self) -> float | None:
        """Estimated seconds until the grid drains (None before any data)."""
        if not self.task_times:
            return None
        return self.mean_task_seconds() * self.tasks_pending / max(1, self.jobs)

    def summary(self) -> dict[str, Any]:
        """Flat snapshot of every counter (the exec-stats payload)."""
        eta = self.eta_seconds()
        return {
            "jobs": self.jobs,
            "tasks_total": self.tasks_total,
            "tasks_queued": self.tasks_queued,
            "tasks_running": self.tasks_running,
            "tasks_done": self.tasks_done,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "traces_built": self.traces_built,
            "sims_run": self.sims_run,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "resumed_cells": self.resumed_cells,
            "degraded": len(self.degraded),
            "degraded_workloads": [
                entry["workload"] for entry in self.degraded
            ],
            "quarantined": len(self.quarantined),
            "quarantined_tasks": [entry["task"] for entry in self.quarantined],
            "mean_task_seconds": self.mean_task_seconds(),
            "eta_seconds": eta if eta is not None else 0.0,
            "wall_seconds": self.wall_seconds,
        }

    def render(self) -> str:
        """Human-readable statistics table."""
        from repro.harness.report import format_exec_stats

        return format_exec_stats(self.summary())

    # -- persistence --------------------------------------------------------

    def persist(self, path: str | Path) -> None:
        """Write a JSON snapshot (summary + per-task timings).

        The write is atomic (temp file + ``os.replace``): a crash
        mid-write leaves the previous snapshot intact rather than a
        truncated JSON file that would poison ``repro exec-stats``.
        """
        document = {
            "summary": self.summary(),
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "task_times": [asdict(timing) for timing in self.task_times],
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        _write_atomically(target,
                          json.dumps(document, indent=2, sort_keys=True))


def _write_atomically(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` through a temp file and ``os.replace``.

    Readers see the old file or the whole new one, never a prefix.  No
    fsync: a lost snapshot costs only what ``repro exec-stats`` shows
    (DESIGN.md §8).  The temp file is unlinked only when the replace did
    not happen.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_stats(path: str | Path) -> dict[str, Any]:
    """Read back a snapshot written by :meth:`ExecTelemetry.persist`."""
    return json.loads(Path(path).read_text())
