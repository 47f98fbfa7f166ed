"""Shared fixtures for the test suite."""

from __future__ import annotations

import sqlite3
import time
from contextlib import closing
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.reuse import COLD, ReuseProfile
from repro.exec.cache import STORE_NAME, ResultCache
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.ir.nodes import ArrayDecl, Compute, For, Kernel, Load, Store
from repro.ir.builder import c, v
from repro.passes.annotate import annotate_tight_loops
from repro.sim.results import SimResult
from repro.ir.interp import run_kernel
from repro.trace.stream import Trace


# -- damaging the result store -------------------------------------------------


def rewrite_envelope(
    results_root: str | Path,
    change: Callable[[str | None], str | None],
    key: str | None = None,
    written: float | None = None,
) -> str:
    """Rewrite one stored result-cache envelope behind the cache's back,
    as a damaged disk or an older build would leave it.

    ``change`` maps the stored text (None when ``key`` has no row) to
    the new text, or to None to delete the row.  ``key`` defaults to the
    smallest stored key; ``written`` defaults to the row's stored time,
    or now for a new row.  Returns the key.
    """
    path = Path(results_root) / STORE_NAME
    with closing(ResultCache(results_root)) as cache:
        len(cache)  # creates the store and its table if missing
        with closing(sqlite3.connect(path)) as db:
            if key is None:
                key = db.execute("SELECT min(key) FROM results").fetchone()[0]
                assert key is not None, f"no stored envelope in {path}"
            row = db.execute("SELECT envelope, written FROM results "
                             "WHERE key = ?", (key,)).fetchone()
        text = change(None if row is None else row[0])
        if text is None:
            cache.discard([key])
            return key
        if row is None:  # a row in the key's slot, to overwrite below
            cache.put(key, SimResult(workload="", prefetcher=""))
    if written is None:
        written = time.time() if row is None else row[1]
    with closing(sqlite3.connect(path)) as db, db:
        db.execute("UPDATE results SET envelope = ?, written = ? "
                   "WHERE key = ?", (text, written, key))
    return key


# -- reading a reuse profile --------------------------------------------------


def cold_fraction(profile: ReuseProfile) -> float:
    """Fraction of accesses that are first touches."""
    if profile.accesses == 0:
        return 0.0
    return profile.histogram.get(COLD, 0) / profile.accesses


def hit_ratio_at(profile: ReuseProfile, capacity_lines: int) -> float:
    """Hit ratio of a fully-associative LRU cache of that capacity."""
    if profile.accesses == 0:
        return 0.0
    hits = sum(
        count for distance, count in profile.histogram.items()
        if distance != COLD and distance < capacity_lines
    )
    return hits / profile.accesses


def working_set_lines(profile: ReuseProfile, coverage: float = 0.9) -> int:
    """Smallest LRU capacity achieving ``coverage`` of the maximum
    achievable (non-cold) hit ratio."""
    histogram = profile.histogram
    reuses = profile.accesses - histogram.get(COLD, 0)
    if reuses == 0:
        return 0
    target = coverage * reuses
    covered = 0
    for distance in sorted(d for d in histogram if d != COLD):
        covered += histogram[distance]
        if covered >= target:
            return distance + 1
    return max(d for d in histogram if d != COLD) + 1


def make_stream_kernel(
    name: str = "stream",
    length: int = 2048,
    element_size: int = 8,
    compute: int = 4,
) -> Kernel:
    """A unit-stride streaming kernel: one load + one store per iteration."""
    i = v("i")
    body = [
        For("i", 0, length, [
            Load("src", i),
            Compute(compute),
            Store("dst", i),
        ]),
    ]
    return Kernel(
        name,
        [ArrayDecl("src", length, element_size),
         ArrayDecl("dst", length, element_size)],
        body,
    )


def make_strided_kernel(
    name: str = "strided",
    iterations: int = 512,
    stride_elements: int = 128,
    element_size: int = 8,
    streams: int = 3,
) -> Kernel:
    """A kernel whose iteration working set is ``streams`` far-apart lines
    advancing by a constant multi-line stride — the CBWS sweet spot."""
    i = v("i")
    loads = [
        Load("data", i * c(stride_elements) + c(k * stride_elements // 8))
        for k in range(streams)
    ]
    body = [For("i", 0, iterations, [*loads, Compute(6)])]
    length = iterations * stride_elements + stride_elements
    return Kernel(name, [ArrayDecl("data", length, element_size)], body)


def annotated_trace(kernel: Kernel, seed: int = 0) -> Trace:
    """Annotate and execute a kernel, returning a validated trace."""
    annotate_tight_loops(kernel)
    trace = run_kernel(kernel, seed=seed)
    trace.validate()
    return trace


@pytest.fixture
def stream_trace() -> Trace:
    """Trace of the unit-stride streaming kernel."""
    return annotated_trace(make_stream_kernel())


@pytest.fixture
def strided_trace() -> Trace:
    """Trace of the constant-multi-line-stride kernel."""
    return annotated_trace(make_strided_kernel())


@pytest.fixture
def tiny_runner() -> GridRunner:
    """A grid runner with very small workload budgets for fast tests."""
    return GridRunner(budget_fraction=0.05)


@pytest.fixture(autouse=False)
def fresh_trace_cache():
    """Isolate tests that depend on trace-cache state."""
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture(autouse=True)
def _isolated_cli_cache(tmp_path, monkeypatch):
    """Point the CLI's default cache directory away from the repo.

    Without this, any test invoking ``repro.cli.main`` would create
    ``.repro-cache/`` in the current working directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
