"""Tests for repro.exec: keys, cache, plan, scheduler, runner wiring."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign.runner import run_campaign
from repro.campaign.spec import parse_spec
from repro.cli import _runner, build_parser, main
from repro.common.errors import TransientError
from repro.exec import (
    ExecOptions,
    GridPlan,
    InjectSpec,
    ResultCache,
    TraceNode,
    stable_hash,
    trace_key,
)
from repro.exec import telemetry as telemetry_module
from repro.exec import traces
from repro.exec.keys import canonicalize, sim_key
from repro.exec.pool import TraceTask
from repro.exec.scheduler import _split, execute_grid
from repro.exec.telemetry import ExecTelemetry, load_stats
from repro.harness import experiments
from repro.harness.registry import EXTENDED_PREFETCHER_ORDER
from repro.harness.report import format_exec_stats
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.sim.config import PAPER_CONFIG, REDUCED_CONFIG
from repro.trace.columnar import ROW, EventColumns
from repro.trace.stream import Trace
from repro.workloads import ALL_WORKLOADS, build_trace, get_workload

from conftest import rewrite_envelope

WORKLOADS = ["nw", "stencil-default"]
PREFETCHERS = ["no-prefetch", "stride"]

# The acceptance grid: 4 workloads x 3 prefetchers.
IDENTITY_WORKLOADS = ["nw", "stencil-default", "histo-large", "fft-simlarge"]
IDENTITY_PREFETCHERS = ["no-prefetch", "stride", "sms"]


def tiny_plan(workloads=("nw",), prefetchers=("no-prefetch", "stride")):
    return GridPlan.from_grid(
        list(workloads), list(prefetchers),
        scale=1.0, budget_fraction=0.02, seed=0, config=REDUCED_CONFIG,
    )


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    """A file that gets one ``<pid> <workload>`` line per trace build,
    in this process and in every pool worker forked after it exists."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("counting builds on pool workers needs fork")
    log = tmp_path / "builds.log"
    log.touch()
    real_build_trace = traces.build_trace

    def logged(spec, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {spec.name}\n")
        return real_build_trace(spec, **kwargs)

    monkeypatch.setattr(traces, "build_trace", logged)
    return log


def builds(log):
    """The (pid, workload) of every build in a :func:`build_log` file."""
    return [tuple(line.split()) for line in log.read_text().splitlines()]


def cells(results):
    """``execute_grid`` results (keyed by SimNode) by grid cell."""
    return {node.cell: result for node, result in results.items()}


def grid_cells(grid, workloads=WORKLOADS, prefetchers=PREFETCHERS):
    return {
        (w, p): grid.get(w, p).to_dict()
        for w in workloads for p in prefetchers
    }


class TestKeys:
    def test_equal_inputs_equal_keys(self):
        assert stable_hash("a", 1, 0.3) == stable_hash("a", 1, 0.3)

    def test_float_precision_never_collides(self):
        # 0.1 + 0.2 != 0.3 exactly; the keys must reflect that.
        assert stable_hash(0.1 + 0.2) != stable_hash(0.3)
        # int 1 and float 1.0 compare equal but are distinct inputs.
        assert stable_hash(1) != stable_hash(1.0)

    def test_canonicalize_rejects_unkeyable_values(self):
        with pytest.raises(TypeError, match="stable key"):
            canonicalize(object())

    def test_trace_key_stable_and_distinct(self):
        first = trace_key("nw", 1.0, 0.1 + 0.2, 0)
        again = trace_key("nw", 1.0, 0.1 + 0.2, 0)
        other = trace_key("nw", 1.0, 0.3, 0)
        assert first == again
        assert first != other
        assert trace_key("nw", 1, 0.3, 0) != other
        assert TraceNode("nw", 1.0, 0.1 + 0.2, 0).key == first

    def test_sim_key_covers_config(self):
        reduced = sim_key("nw", "stride", 1.0, 0.3, 0, REDUCED_CONFIG)
        paper = sim_key("nw", "stride", 1.0, 0.3, 0, PAPER_CONFIG)
        assert reduced != paper

    def test_sim_key_stable_across_processes(self):
        local = sim_key("nw", "stride", 1.0, 0.3, 0, REDUCED_CONFIG)
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from repro.exec.keys import sim_key\n"
            "from repro.sim.config import REDUCED_CONFIG\n"
            "print(sim_key('nw', 'stride', 1.0, 0.3, 0, REDUCED_CONFIG))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == local


class TestResultCache:
    def test_round_trip(self, tiny_runner, tmp_path):
        result = tiny_runner.run_one("nw", "stride")
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.contains(key)
        assert cache.get(key).to_dict() == result.to_dict()
        assert len(cache) == 1

    def test_corrupt_entry_is_miss_and_deleted(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        rewrite_envelope(tmp_path, lambda _: "{ not json", key)
        assert cache.get(key) is None
        assert not cache.contains(key)

    def test_schema_mismatch_is_miss(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))

        def stale(text):
            document = json.loads(text)
            document["result"]["schema"] = 999
            return json.dumps(document)

        rewrite_envelope(tmp_path, stale, key)
        assert cache.get(key) is None

    def test_put_publishes_without_unlinking(self, tiny_runner, tmp_path,
                                             monkeypatch):
        # A put is one row in one database file: no temp file, no
        # fan-out directory, nothing to unlink.
        unlinked = []
        monkeypatch.setattr(Path, "unlink",
                            lambda path, missing_ok=False: unlinked.append(path))
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        assert unlinked == []
        assert not [path for path in tmp_path.rglob("*") if path.is_dir()]
        cache.close()
        assert [path.name for path in tmp_path.rglob("*")] == [
            "results.sqlite"]

    def test_clear(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        cache.clear()
        assert len(cache) == 0


class TestGridPlan:
    def test_one_trace_node_per_workload(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        assert sorted(node.workload for node in plan.trace_nodes) == \
            sorted(WORKLOADS)
        assert len(plan) == 4

    def test_sim_nodes_preserve_grid_order(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        cells = [node.cell for node in plan.sim_nodes]
        assert cells == [(w, p) for w in WORKLOADS for p in PREFETCHERS]

    def test_dependents(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        nw = plan.trace_nodes[0]
        fanout = [node for node in plan.sim_nodes if node.trace == nw]
        assert [node.prefetcher for node in fanout] == PREFETCHERS
        assert all(node.workload == "nw" for node in fanout)


class TestExecuteGrid:
    @pytest.mark.parametrize("prefetchers", [
        ("no-prefetch", "stride"),
        tuple(EXTENDED_PREFETCHER_ORDER),  # >= 8 cells over one trace
    ], ids=["pair", "extended"])
    def test_parallel_matches_serial(self, fresh_trace_cache, prefetchers):
        plan = tiny_plan(prefetchers=prefetchers)
        serial, _ = execute_grid(plan, options=ExecOptions(jobs=1))
        parallel, telemetry = execute_grid(plan, options=ExecOptions(jobs=2))
        assert serial.keys() == parallel.keys()
        for cell, result in serial.items():
            assert parallel[cell].to_dict() == result.to_dict()
        assert telemetry.sims_run == len(prefetchers)
        assert telemetry.jobs == 2

    def test_retry_then_success(self, fresh_trace_cache):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, max_retries=2, retry_backoff=0.0),
            inject={("nw", "stride"): InjectSpec(mode="raise", times=1)},
        )
        assert len(results) == 2
        assert telemetry.retries == 1
        assert not telemetry.quarantined

    def test_retry_exhaustion_quarantines(self, fresh_trace_cache):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, max_retries=1, retry_backoff=0.0),
            inject={("nw", "stride"): InjectSpec(mode="raise", times=10)},
        )
        assert ("nw", "stride") not in cells(results)
        assert ("nw", "no-prefetch") in cells(results)
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert telemetry.quarantined[0]["attempts"] == 2

    def test_trace_failure_quarantines_dependents(self, fresh_trace_cache):
        # An unknown workload name fails its trace build.
        results, telemetry = execute_grid(
            tiny_plan(workloads=("no-such",)),
            options=ExecOptions(jobs=1),
        )
        assert not results
        names = sorted(entry["task"] for entry in telemetry.quarantined)
        assert names == ["sim:no-such:no-prefetch", "sim:no-such:stride",
                         "trace:no-such"]

    def test_memory_hit_counts_no_trace_source(self, fresh_trace_cache):
        execute_grid(tiny_plan(), options=ExecOptions(jobs=1))
        _, telemetry = execute_grid(tiny_plan(), options=ExecOptions(jobs=1))
        assert telemetry.traces_built == 0

    def test_worker_crash_quarantines_only_guilty(self, fresh_trace_cache):
        # One cell crashes its worker on every attempt.  The pool break
        # kills the innocent neighbour's future too, but the serial
        # probe must re-run it uncharged and quarantine only the
        # repeat offender.
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=2, max_retries=1, retry_backoff=0.0),
            inject={("nw", "stride"): InjectSpec(mode="crash", times=10)},
        )
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert ("nw", "no-prefetch") in cells(results)
        assert telemetry.worker_crashes >= 1

    def test_hung_task_times_out(self, fresh_trace_cache):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=2, max_retries=0, timeout=1.5,
                                retry_backoff=0.0),
            inject={("nw", "stride"): InjectSpec(mode="hang",
                                                 hang_seconds=30.0,
                                                 times=10)},
        )
        assert telemetry.timeouts >= 1
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert ("nw", "no-prefetch") in cells(results)

    def test_pool_builds_each_trace_once(self, fresh_trace_cache, build_log):
        workloads = ("nw", "stencil-default", "histo-large")
        results, telemetry = execute_grid(
            tiny_plan(workloads, ("no-prefetch", "stride", "sms")),
            options=ExecOptions(jobs=2))
        assert len(results) == 9
        logged = builds(build_log)
        assert sorted(workload for _, workload in logged) == sorted(workloads)
        assert str(os.getpid()) not in {pid for pid, _ in logged}
        assert telemetry.traces_built == len(logged)

    def test_crash_in_a_split_task_quarantines_only_guilty(
            self, fresh_trace_cache):
        # One trace, four sims, two workers: two tasks of two sims.  The
        # crashing sim's task dies whole, and its sims re-run uncharged
        # one at a time until only the crasher is charged.
        prefetchers = ("no-prefetch", "stride", "sms", "ghb-pc/dc")
        results, telemetry = execute_grid(
            tiny_plan(prefetchers=prefetchers),
            options=ExecOptions(jobs=2, max_retries=1, retry_backoff=0.0),
            inject={("nw", "sms"): InjectSpec(mode="crash", times=10)},
        )
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:sms"]
        assert telemetry.quarantined[0]["attempts"] == 2
        assert set(cells(results)) == {
            ("nw", p) for p in prefetchers if p != "sms"}
        assert telemetry.worker_crashes >= 2

    def test_lone_multi_sim_task_is_not_charged_for_a_crash(
            self, fresh_trace_cache):
        # The stencil task lands first, so the nw task crashes alone.
        # It holds two sims, so the crash is not charged to either: both
        # re-run through the probe, where only the crasher is charged.
        results, telemetry = execute_grid(
            tiny_plan(("nw", "stencil-default")),
            options=ExecOptions(jobs=2, max_retries=1, retry_backoff=0.0),
            inject={
                ("nw", "no-prefetch"): InjectSpec(mode="hang",
                                                  hang_seconds=1.0),
                ("nw", "stride"): InjectSpec(mode="crash", times=10),
            },
        )
        assert [(entry["task"], entry["attempts"])
                for entry in telemetry.quarantined] == [("sim:nw:stride", 2)]
        assert set(cells(results)) == {
            ("nw", "no-prefetch"), ("stencil-default", "no-prefetch"),
            ("stencil-default", "stride")}
        assert telemetry.worker_crashes == 3

    def test_hang_in_a_split_task_charges_only_the_hung_sim(
            self, fresh_trace_cache):
        # The expired task holds two sims, so neither is charged for the
        # timeout; run alone through the probe, only the hung one is.
        prefetchers = ("no-prefetch", "stride", "sms", "ghb-pc/dc")
        results, telemetry = execute_grid(
            tiny_plan(prefetchers=prefetchers),
            options=ExecOptions(jobs=2, max_retries=0, timeout=0.75,
                                retry_backoff=0.0),
            inject={("nw", "stride"): InjectSpec(mode="hang",
                                                 hang_seconds=30.0,
                                                 times=10)},
        )
        assert [entry["task"] for entry in telemetry.quarantined] == [
            "sim:nw:stride"]
        assert set(cells(results)) == {
            ("nw", p) for p in prefetchers if p != "stride"}
        assert telemetry.timeouts == 2

    def test_task_deadline_scales_with_its_sims(self, fresh_trace_cache):
        # Two tasks of two sims; each sim stalls 1 s, inside the 1.5 s
        # per-simulation timeout, so each task takes over 2 s in all.
        prefetchers = ("no-prefetch", "stride", "sms", "ghb-pc/dc")
        stall = InjectSpec(mode="hang", hang_seconds=1.0, times=1)
        results, telemetry = execute_grid(
            tiny_plan(prefetchers=prefetchers),
            options=ExecOptions(jobs=2, max_retries=0, timeout=1.5,
                                retry_backoff=0.0),
            inject={("nw", p): stall for p in prefetchers},
        )
        assert telemetry.timeouts == 0
        assert telemetry.quarantined == []
        assert len(results) == len(prefetchers)

    def test_split_halves_the_largest_task_up_to_jobs(self):
        plan = tiny_plan(("nw", "stencil-default"),
                         ("no-prefetch", "stride", "sms", "ghb-pc/dc"))
        nw, stencil = ([node for node in plan.sim_nodes if node.trace == t]
                       for t in plan.trace_nodes)
        tasks = [TraceTask(nw[0].trace, tuple(nw[:3])),
                 TraceTask(stencil[0].trace, (stencil[0],))]
        assert [len(t.sims) for t in _split(tasks, 2)] == [3, 1]
        assert [len(t.sims) for t in _split(tasks, 3)] == [2, 1, 1]
        assert [len(t.sims) for t in _split(tasks, 8)] == [1, 1, 1, 1]
        split = _split(tasks, 4)
        assert [node for t in split for node in t.sims] == (
            nw[:3] + stencil[:1])

    def test_cache_replay_runs_zero_sims(self, fresh_trace_cache, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cold_results, cold = execute_grid(
            tiny_plan(), options=ExecOptions(jobs=1), cache=cache)
        warm_results, warm = execute_grid(
            tiny_plan(), options=ExecOptions(jobs=1), cache=cache)
        assert cold.sims_run == 2 and cold.cache_hits == 0
        assert warm.sims_run == 0 and warm.cache_hits == 2
        for cell, result in cold_results.items():
            assert warm_results[cell].to_dict() == result.to_dict()

    def test_stats_persist_and_render(self, fresh_trace_cache, tmp_path):
        stats_path = tmp_path / "exec-stats.json"
        execute_grid(tiny_plan(), options=ExecOptions(jobs=1),
                     stats_path=stats_path)
        document = load_stats(stats_path)
        assert document["summary"]["sims_run"] == 2
        rendered = format_exec_stats(document["summary"])
        assert "simulations run" in rendered
        # A damaged cached row counts as a miss; there is no separate
        # counter for it.
        assert "corrupt" not in rendered
        assert telemetry_module.LAST_RUN is not None


class TestTelemetry:
    def test_counters_balance(self):
        telemetry = ExecTelemetry()
        telemetry.task_queued(3)
        telemetry.task_started()
        telemetry.task_finished("t", "sim", 0.1, 1)
        assert telemetry.tasks_done == 1
        assert telemetry.tasks_pending == 2
        assert telemetry.mean_task_seconds() == pytest.approx(0.1)
        assert telemetry.eta_seconds() == pytest.approx(0.2)

    def test_summary_includes_quarantined_tasks(self):
        telemetry = ExecTelemetry()
        telemetry.quarantine("sim:a:b", "sim", "boom", 3)
        summary = telemetry.summary()
        assert summary["quarantined"] == 1
        assert summary["quarantined_tasks"] == ["sim:a:b"]
        assert "sim:a:b" in format_exec_stats(summary)


def fake_trace(events: int) -> Trace:
    """A trace of ``events`` zero rows: the trace-store bound tests need
    its column bytes, not a built workload."""
    return Trace("fake", EventColumns([0] * (ROW * events)), 0)


class TestPrefetcherSpellings:
    """Two spellings of one geometry are one simulation."""

    def test_cache_replays_across_spellings(self, fresh_trace_cache,
                                            tmp_path):
        plain = GridRunner(cache_dir=tmp_path, budget_fraction=0.02).run_grid(
            ["nw"], ["cbws"]).get("nw", "cbws")
        grid = GridRunner(cache_dir=tmp_path, budget_fraction=0.02).run_grid(
            ["nw"], ["cbws[max_step=4]"])
        assert telemetry_module.LAST_RUN.sims_run == 0
        result = grid.get("nw", "cbws[max_step=4]")
        assert result.prefetcher == "cbws[max_step=4]"
        assert {**result.to_dict(), "prefetcher": "cbws"} == plain.to_dict()

    def test_memo_and_one_grid_share_spellings(self, fresh_trace_cache):
        runner = GridRunner(budget_fraction=0.02)
        names = ["cbws", "cbws[table_entries=16]"]
        grid = runner.run_grid(["nw"], names)
        assert telemetry_module.LAST_RUN.sims_run == 1
        assert [grid.get("nw", name).prefetcher for name in names] == names
        telemetry_module.LAST_RUN = None
        again = runner.run_grid(["nw"], ["cbws[max_vector_members=16]"])
        assert telemetry_module.LAST_RUN is None  # a memo hit
        result = again.get("nw", "cbws[max_vector_members=16]")
        assert result.prefetcher == "cbws[max_vector_members=16]"
        assert result.cycles == grid.get("nw", "cbws").cycles


class TestRunnerWiring:
    def test_memory_cache_is_bounded(self, fresh_trace_cache, monkeypatch):
        # GridRunner.trace fills the trace store's one LRU.
        monkeypatch.setattr(traces, "build_trace",
                            lambda spec, **kwargs: fake_trace(1))
        capacity = traces.CAPACITY
        names = ALL_WORKLOADS[:capacity + 4]
        runner = GridRunner()
        for name in names:
            runner.trace(name)
        keys = [TraceNode(name, 1.0, 1.0, 0).key for name in names]
        assert len(traces._LRU) == capacity
        # Oldest entries were evicted, newest kept.
        assert keys[0] not in traces._LRU
        assert keys[-1] in traces._LRU

    def test_trace_node_key_is_stable_and_distinct(self):
        def key(budget_fraction):
            return TraceNode("nw", 1.0, budget_fraction, 0).key

        assert key(0.1 + 0.2) == key(0.1 + 0.2)
        assert key(0.1 + 0.2) != key(0.3)

    def test_exec_path_matches_legacy_grid(self, fresh_trace_cache, tmp_path):
        legacy = GridRunner(budget_fraction=0.02).run_grid(
            WORKLOADS, PREFETCHERS)
        clear_trace_cache()
        executed = GridRunner(
            budget_fraction=0.02, jobs=1, cache_dir=tmp_path,
        ).run_grid(WORKLOADS, PREFETCHERS)
        assert grid_cells(executed) == grid_cells(legacy)

    def test_parallel_grid_identical_to_serial_4x3(self, fresh_trace_cache,
                                                   tmp_path):
        serial = GridRunner(budget_fraction=0.02).run_grid(
            IDENTITY_WORKLOADS, IDENTITY_PREFETCHERS)
        clear_trace_cache()
        parallel = GridRunner(
            budget_fraction=0.02, jobs=2, cache_dir=tmp_path / "par",
        ).run_grid(IDENTITY_WORKLOADS, IDENTITY_PREFETCHERS)
        for workload in IDENTITY_WORKLOADS:
            for prefetcher in IDENTITY_PREFETCHERS:
                expected = serial.get(workload, prefetcher)
                actual = parallel.get(workload, prefetcher)
                assert actual.mpki == expected.mpki
                assert actual.ipc == expected.ipc
                assert actual.to_dict() == expected.to_dict()

    def test_result_cache_replay_across_runners(self, fresh_trace_cache,
                                                tmp_path):
        cold = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        cold_grid = cold.run_grid(["nw"], PREFETCHERS)
        clear_trace_cache()
        warm = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        warm_grid = warm.run_grid(["nw"], PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.sims_run == 0
        assert telemetry.cache_hits == len(PREFETCHERS)
        assert (grid_cells(warm_grid, ["nw"], PREFETCHERS)
                == grid_cells(cold_grid, ["nw"], PREFETCHERS))
        assert (tmp_path / "exec-stats.json").exists()

    def test_figure14_warm_rerun_runs_zero_sims(self, fresh_trace_cache,
                                                tmp_path):
        from repro.harness import experiments

        cold_runner = GridRunner(budget_fraction=0.02, jobs=1,
                                 cache_dir=tmp_path)
        cold = experiments.figure14(cold_runner)
        cold_stats = telemetry_module.LAST_RUN
        assert cold_stats.sims_run > 0
        clear_trace_cache()
        warm_runner = GridRunner(budget_fraction=0.02, jobs=1,
                                 cache_dir=tmp_path)
        warm = experiments.figure14(warm_runner)
        warm_stats = telemetry_module.LAST_RUN
        assert warm_stats.sims_run == 0
        assert warm_stats.cache_hits == cold_stats.sims_run
        assert warm.render() == cold.render()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_sources_counted_alike(self, fresh_trace_cache, tmp_path,
                                         build_log, jobs):
        def rerun():
            shutil.rmtree(tmp_path / "results", ignore_errors=True)
            clear_trace_cache()
            before = len(builds(build_log))
            GridRunner(budget_fraction=0.02, cache_dir=tmp_path,
                       jobs=jobs).run_grid(["nw"], ["stride", "sms"])
            built = len(builds(build_log)) - before
            assert telemetry_module.LAST_RUN.traces_built == built
            return built

        # Each process builds its own traces: a rerun builds again, and
        # every build is counted.  Two workers split the trace's two
        # sims, so each may build it.
        for _ in range(2):
            assert 1 <= rerun() <= jobs

    def test_no_trace_file_is_written_to_the_cache_dir(
            self, fresh_trace_cache, tmp_path):
        for jobs, prefetchers in ((1, ["stride"]), (2, ["sms", "cbws"])):
            GridRunner(budget_fraction=0.02, cache_dir=tmp_path,
                       jobs=jobs).run_grid(["nw"], prefetchers)
            assert telemetry_module.LAST_RUN.sims_run == len(prefetchers)
            clear_trace_cache()
        run_campaign(parse_spec({
            "version": 1,
            "base": {"workloads": ["nw"], "prefetchers": ["stride"],
                     "budget_fraction": 0.02},
            "axes": [{"name": "l2_kb", "values": [64, 128]}],
        }), tmp_path)
        assert (tmp_path / "results").is_dir()
        assert list(tmp_path.rglob("*.trace")) == []

    def test_uncached_serial_grid_runs_through_exec_engine(
            self, fresh_trace_cache, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        telemetry_module.LAST_RUN = None
        grid = GridRunner(budget_fraction=0.02).run_grid(["nw"], ["stride"])
        assert grid.get("nw", "stride").prefetcher == "stride"
        assert telemetry_module.LAST_RUN.sims_run == 1
        # With no cache directory nothing is written anywhere.
        assert list(tmp_path.iterdir()) == []

    def test_serial_retry_runs_before_the_next_trace(
            self, fresh_trace_cache, monkeypatch):
        # With room for one trace in the LRU, a retry queued behind the
        # next trace would find its own trace evicted and build it again.
        monkeypatch.setattr(traces, "CAPACITY", 1)
        results, telemetry = execute_grid(
            tiny_plan(("nw", "stencil-default")),
            options=ExecOptions(jobs=1, retry_backoff=0.0),
            inject={("nw", "no-prefetch"): InjectSpec(mode="raise",
                                                      times=1)},
        )
        assert len(results) == 4
        assert telemetry.retries == 1
        assert telemetry.traces_built == 2

    def test_serial_trace_build_retries_transient_error(
            self, fresh_trace_cache, monkeypatch):
        real_get_trace = traces.get_trace
        calls = []

        def flaky(node):
            calls.append(node.workload)
            if len(calls) == 1:
                raise TransientError("injected trace-store hiccup")
            return real_get_trace(node)

        monkeypatch.setattr(traces, "get_trace", flaky)
        runner = GridRunner(budget_fraction=0.02,
                            exec_options=ExecOptions(retry_backoff=0.0))
        grid = runner.run_grid(["nw"], ["stride"])
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.retries == 1
        assert telemetry.degraded == [] and telemetry.quarantined == []
        assert not grid.get("nw", "stride").degraded

    def test_ablation_replays_from_warm_cache(self, fresh_trace_cache,
                                              tmp_path):
        cold = experiments.ablation_table_size(
            GridRunner(budget_fraction=0.02, cache_dir=tmp_path))
        telemetry_module.LAST_RUN = None
        warm = experiments.ablation_table_size(
            GridRunner(budget_fraction=0.02, cache_dir=tmp_path))
        assert telemetry_module.LAST_RUN.sims_run == 0
        assert warm.render() == cold.render()


class TestCliExec:
    def test_runner_flag_plumbing(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--jobs", "3", "--cache-dir", str(tmp_path),
            "--no-result-cache",
        ])
        runner = _runner(args)
        assert runner.jobs == 3
        assert runner.cache_dir == tmp_path
        assert runner._result_cache_root is None

    def test_default_jobs_uses_all_cores(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--cache-dir", str(tmp_path),
        ])
        runner = _runner(args)
        assert runner.jobs is None
        assert runner._result_cache_root == tmp_path / "results"

    def test_exec_stats_command(self, fresh_trace_cache, tmp_path, capsys):
        GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path).run_grid(
            ["nw"], ["stride"])
        assert main(["exec-stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Grid execution statistics" in out
        assert "simulations run" in out

    def test_exec_stats_without_run_fails_cleanly(self, tmp_path, capsys):
        code = main(["exec-stats", "--cache-dir", str(tmp_path / "empty")])
        assert code == 1
        assert "no recorded execution statistics" in capsys.readouterr().err


class TestWorkerTraceCacheBytes:
    """The trace store's LRU (one per process, so one per pool worker)
    is bounded by estimated total bytes."""

    def test_byte_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(traces, "MAX_BYTES", 100_000)
        monkeypatch.setattr(traces, "_LRU", traces.OrderedDict())
        # Each ~33 KB trace fits; a fourth pushes the total over 100 KB.
        trace = fake_trace(events=1300)
        assert 30_000 < traces.trace_nbytes(trace) < 40_000
        for index in range(4):
            traces._remember(f"t{index}", fake_trace(events=1300))
        assert "t0" not in traces._LRU
        assert "t3" in traces._LRU
        total = sum(traces.trace_nbytes(t) for t in traces._LRU.values())
        assert total <= 100_000

    def test_single_oversized_trace_is_retained(self, monkeypatch):
        monkeypatch.setattr(traces, "MAX_BYTES", 1_000)
        monkeypatch.setattr(traces, "_LRU", traces.OrderedDict())
        traces._remember("big", fake_trace(events=10_000))
        # Over budget, but the most recent entry always survives so
        # repeated sims of one oversized workload still hit the cache.
        assert "big" in traces._LRU
        traces._remember("bigger", fake_trace(events=20_000))
        assert "big" not in traces._LRU
        assert "bigger" in traces._LRU

    def test_nbytes_is_the_column_arrays(self):
        trace = build_trace(get_workload("nw"), max_accesses=2000)
        arrays = trace.columns().arrays()
        assert traces.trace_nbytes(trace) == sum(
            len(column) * column.itemsize for column in arrays)
        assert traces.trace_nbytes(trace) == 26 * len(trace)

    def test_count_bound_still_applies(self, monkeypatch):
        monkeypatch.setattr(traces, "_LRU", traces.OrderedDict())
        for index in range(traces.CAPACITY + 2):
            traces._remember(f"t{index}", fake_trace(events=1))
        assert len(traces._LRU) == traces.CAPACITY


class TestSharedPool:
    def test_execute_grid_reuses_borrowed_pool(self):
        from repro.exec.pool import WorkerPool

        pool = WorkerPool(2)
        try:
            plan = tiny_plan()
            first, _ = execute_grid(plan, options=ExecOptions(jobs=2),
                                    pool=pool)
            second, _ = execute_grid(plan, options=ExecOptions(jobs=2),
                                     pool=pool)
            assert first.keys() == second.keys()
            for cell in first:
                assert first[cell].to_dict() == second[cell].to_dict()
        finally:
            pool.shutdown()
        # The borrowed pool survived both runs; shutdown was ours alone.
