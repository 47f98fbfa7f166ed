"""Shared helpers: the checkout, metric records, digests and statistics."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Root of the checkout the benchmark runs in (the directory holding
#: ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.
SRC = ROOT / "src"
#: Scratch space for caches and the span files (ignored by git).
WORK = ROOT / ".perfbench-work"
#: Modules the program's users import before their first request.
IMPORTS = ("repro.harness.experiments", "repro.serve.http",
           "repro.serve.client")
#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 3


def use_program() -> None:
    """Make the checkout's ``src/repro`` importable, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area, unique to this process."""
    path = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dirs() -> None:
    """Delete every directory :func:`fresh_dir` made in this process."""
    for path in WORK.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(IMPORTS)],
        env=env, cwd=ROOT, check=True, timeout=60,
    )
    return time.perf_counter() - started


def result_digest(result: Any) -> str:
    """Short content digest of one SimResult."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cell_name(workload: str, prefetcher: str) -> str:
    return f"{workload}|{prefetcher}"


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, 1 <= pct <= 99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the result (simulated numbers,
    #: layer tables, sample counts).
    notes: list[str] = field(default_factory=list)
    #: Span records of a traced run: (id, parent id, layer, thread,
    #: start s, end s), written to the work area when the run ends.
    spans: list[tuple] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_fraction(self) -> float:
        return 1.0 - min(self.failed, self.attempted) / max(1, self.attempted)
