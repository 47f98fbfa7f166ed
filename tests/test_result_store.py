"""The result cache's SQLite store: damage, misfiled rows, shared slots,
descriptors, forks and gc."""

from __future__ import annotations

import gc
import os
import random
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from repro.exec import ExecOptions, GridPlan, InjectSpec, ResultCache
from repro.exec import cache as cache_module
from repro.exec import telemetry as telemetry_module
from repro.exec.cache import STORE_NAME
from repro.exec.scheduler import execute_grid
from repro.harness.export import write_json
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.sim.config import REDUCED_CONFIG
from repro.sim.results import SimResult

from conftest import rewrite_envelope

WORKLOADS = ["nw", "stencil-default"]
PREFETCHERS = ["no-prefetch", "stride", "sms"]


def run_grid(cache_dir):
    return GridRunner(budget_fraction=0.02, jobs=1,
                      cache_dir=cache_dir).run_grid(WORKLOADS, PREFETCHERS)


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_damaged_store_is_moved_aside_and_the_grid_resimulates(
        fresh_trace_cache, tmp_path, caplog, damage):
    reference = run_grid(tmp_path / "reference")
    clear_trace_cache()
    cache_dir = tmp_path / "damaged"
    run_grid(cache_dir)
    clear_trace_cache()

    store = cache_dir / "results" / STORE_NAME
    data = store.read_bytes()
    store.write_bytes(data[:len(data) // 2] if damage == "truncated"
                      else random.Random(0).randbytes(len(data)))

    with caplog.at_level("WARNING", logger="repro.exec"):
        grid = run_grid(cache_dir)
    assert "is damaged" in caplog.text
    assert len(list(store.parent.glob(f"{STORE_NAME}.corrupt-*"))) == 1
    telemetry = telemetry_module.LAST_RUN
    assert telemetry.sims_run >= 1
    assert telemetry.sims_run + telemetry.cache_hits == 6

    reference_json = tmp_path / "reference.json"
    rebuilt_json = tmp_path / "rebuilt.json"
    write_json(reference, reference_json, budget_fraction=0.02)
    write_json(grid, rebuilt_json, budget_fraction=0.02)
    assert reference_json.read_bytes() == rebuilt_json.read_bytes()

    # The rebuilt store is whole, and serves the next run.
    clear_trace_cache()
    run_grid(cache_dir)
    assert telemetry_module.LAST_RUN.cache_hits == 6


def test_verify_reports_a_damaged_store_under_its_new_name(tmp_path):
    (tmp_path / STORE_NAME).write_bytes(random.Random(1).randbytes(8192))
    cache = ResultCache(tmp_path)
    ok, [(where, reason)] = cache.verify()
    assert ok == 0 and "not a database" in reason
    assert Path(where).is_file() and f"{STORE_NAME}.corrupt-" in where
    assert len(cache) == 0  # the cache carries on with an empty store
    cache.close()


def test_envelope_filed_under_another_key_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    filed, other = "a" * 64, "b" * 64
    cache.put(filed, SimResult(workload="nw", prefetcher="stride"))
    stored = []
    rewrite_envelope(tmp_path, lambda text: stored.append(text) or text,
                     filed)
    rewrite_envelope(tmp_path, lambda _: stored[0], other)

    ok, corrupt = cache.verify()
    assert ok == 1
    assert corrupt == [(f"{cache.path}[{other}]",
                        f"entry key {filed!r} does not match its row key "
                        f"{other!r}")]
    assert cache.get(filed) is not None
    assert cache.get(other) is None
    assert not cache.contains(other)
    cache.close()


def test_keys_sharing_a_slot_replace_each_other(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "_slot", lambda key: 7)
    cache = ResultCache(tmp_path)
    first, second = "a" * 64, "b" * 64
    cache.put(first, SimResult(workload="nw", prefetcher="stride"))
    cache.put(second, SimResult(workload="nw", prefetcher="sms"))
    # The first key's row was evicted; the slot's holder is untouched.
    assert not cache.contains(first) and cache.get(first) is None
    assert cache.get(second).prefetcher == "sms"
    cache.discard([first])
    assert len(cache) == 1
    cache.close()


def test_cold_grids_leave_no_store_descriptor_open(fresh_trace_cache,
                                                   tmp_path):
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd on this platform")

    def open_stores():
        targets = []
        for fd in fd_dir.iterdir():
            try:
                targets.append(os.readlink(fd))
            except OSError:
                continue  # the listing's own descriptor, now closed
        return [target for target in targets if STORE_NAME in target]

    assert open_stores() == []
    # Every GridRunner.run_grid makes its own ResultCache; with the
    # cycle collector off, only an explicit close frees a connection.
    gc.disable()
    try:
        for index in range(20):
            GridRunner(budget_fraction=0.02, jobs=1,
                       cache_dir=tmp_path / str(index)).run_grid(
                ["nw"], ["no-prefetch"])
            assert telemetry_module.LAST_RUN.sims_run == 1
        assert open_stores() == []
    finally:
        gc.enable()


def test_pool_forks_while_the_parent_holds_the_store(fresh_trace_cache,
                                                      tmp_path):
    plan = GridPlan.from_grid(WORKLOADS, PREFETCHERS[:2], scale=1.0,
                              budget_fraction=0.02, seed=0,
                              config=REDUCED_CONFIG)
    cache = ResultCache(tmp_path / "results")
    assert len(cache) == 0  # the parent opens the store before any fork
    results, telemetry = execute_grid(
        plan,
        options=ExecOptions(jobs=2, max_retries=2, retry_backoff=0.0),
        cache=cache,
        inject={("nw", "stride"): InjectSpec(mode="crash", times=1)},
    )
    assert telemetry.worker_crashes >= 1
    assert not telemetry.quarantined
    assert len(results) == 4

    with closing(sqlite3.connect(cache.path)) as db:
        assert db.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
    warm_results, warm = execute_grid(plan, options=ExecOptions(jobs=1),
                                      cache=cache)
    assert warm.cache_hits == 4 and warm.sims_run == 0
    assert ({node: result.to_dict() for node, result in warm_results.items()}
            == {node: result.to_dict() for node, result in results.items()})


def test_gc_eviction_vacuums_the_file(tmp_path):
    cache = ResultCache(tmp_path)
    for index in range(300):
        cache.put(f"{index:064x}", SimResult(workload="nw",
                                             prefetcher="stride"))
    cache.close()
    before = cache.path.stat().st_size

    stats = cache.gc(max_bytes=0)
    cache.close()
    assert stats.evicted == 300 and len(cache) == 0
    cache.close()
    assert cache.path.stat().st_size < before / 4
