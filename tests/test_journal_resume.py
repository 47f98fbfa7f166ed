"""Write-ahead run journal: format, torn tails, resume, CLI surface."""

import json
import os
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.common.errors import InjectedCrash, JournalError
from repro.exec import faults
from repro.exec.cache import ResultCache
from repro.exec import telemetry as telemetry_module
from repro.exec.faults import FaultSpec
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    RUNS_DIRNAME,
    RunJournal,
    list_runs,
    load_run,
    replay,
    run_fingerprint,
)
from repro.harness.export import write_json
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.sim.config import REDUCED_CONFIG
from repro.trace.io import write_trace

from conftest import rewrite_envelope

WORKLOADS = ["nw"]
PREFETCHERS = ["no-prefetch", "stride"]


@pytest.fixture(autouse=True)
def _no_lingering_faults():
    faults.deactivate()
    yield
    faults.deactivate()


def grid_cells(grid):
    return {
        (w, p): grid.get(w, p).to_dict()
        for w in WORKLOADS for p in PREFETCHERS
    }


class TestJournalFormat:
    def test_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [("nw", "stride")], scale=1.0)
        journal.task_done("trace:nw", "trace")
        journal.task_done("sim:nw:stride", "sim", cell=("nw", "stride"),
                          key="k1")
        journal.run_finished("complete", cells_done=1)
        journal.close()

        state = replay(journal.path)
        assert state.run_id == "r1"
        assert state.fingerprint == "fp"
        assert state.cells == [("nw", "stride")]
        assert state.completed == {("nw", "stride"): "k1"}
        assert state.status == "complete"
        assert state.torn_lines == 0
        assert state.params["scale"] == 1.0

    def test_quarantine_and_degradation_replay(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [("nw", "stride")])
        journal.task_quarantined("sim:nw:stride", "sim", "boom", 2,
                                 "permanent", cell=("nw", "stride"))
        journal.workload_degraded("nw", "3 sims quarantined", 3)
        journal.close()

        state = replay(journal.path)
        assert state.quarantined_cells == {("nw", "stride")}
        assert state.degraded == {"nw": "3 sims quarantined"}
        assert state.describe_status() == "interrupted"

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [])
        journal.task_done("trace:nw", "trace")
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'deadbeef {"kind": "task-done", "tr')  # mid-write

        state = replay(journal.path)
        assert state.records == 2
        assert state.torn_lines == 1

    def test_append_after_torn_tail_is_trusted(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [])
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'deadbeef {"kind": "task-done", "tr')  # mid-write

        resumed = RunJournal(journal.path)
        resumed.append("run-resumed", run_id="r1")
        resumed.run_finished("complete")
        resumed.close()
        state = replay(journal.path)
        assert (state.records, state.torn_lines) == (3, 0)
        assert state.status == "complete"

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no run journal"):
            replay(tmp_path / "nope.jsonl")
        with pytest.raises(JournalError, match="known runs"):
            load_run(tmp_path, "ghost")

    def test_newer_schema_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("run-started", schema=JOURNAL_SCHEMA_VERSION + 1,
                       run_id="r1", fingerprint="fp", cells=[])
        journal.close()
        with pytest.raises(JournalError, match="newer"):
            replay(journal.path)

    def test_injected_torn_write_never_journals_the_record(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [])
        faults.install(FaultSpec(site="journal.append", kind="torn"))
        with pytest.raises(InjectedCrash):
            journal.task_done("sim:nw:stride", "sim", cell=("nw", "stride"),
                              key="k1")
        faults.deactivate()

        state = replay(journal.path)
        # The torn record must not be trusted: only run-started survives.
        assert state.records == 1
        assert state.torn_lines == 1
        assert not state.completed

    def test_fingerprint_covers_every_input(self):
        base = run_fingerprint([("nw", "stride")], 1.0, 0.02, 0,
                               REDUCED_CONFIG)
        assert base == run_fingerprint([("nw", "stride")], 1.0, 0.02, 0,
                                       REDUCED_CONFIG)
        assert base != run_fingerprint([("nw", "stride")], 1.0, 0.03, 0,
                                       REDUCED_CONFIG)
        assert base != run_fingerprint([("nw", "sms")], 1.0, 0.02, 0,
                                       REDUCED_CONFIG)


class TestResume:
    def _reference(self, tmp_path):
        ref = GridRunner(budget_fraction=0.02, jobs=1,
                         cache_dir=tmp_path / "ref", run_id="ref")
        grid = ref.run_grid(WORKLOADS, PREFETCHERS)
        clear_trace_cache()
        return grid

    def _crash_first_run(self, cache_dir):
        """Run the grid, dying right after the first completed sim."""
        faults.install(FaultSpec(site="task-done", kind="crash", at=1))
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=cache_dir, run_id="r1")
        with pytest.raises(InjectedCrash):
            runner.run_grid(WORKLOADS, PREFETCHERS)
        faults.deactivate()
        clear_trace_cache()

    def test_killed_run_resumes_byte_identical(self, fresh_trace_cache,
                                               tmp_path):
        reference = self._reference(tmp_path)
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)

        state = load_run(cache_dir / RUNS_DIRNAME, "r1")
        assert state.describe_status() == "interrupted"
        assert len(state.completed) == 1

        resumed = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=cache_dir, resume="r1")
        grid = resumed.run_grid(WORKLOADS, PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.resumed_cells == 1
        assert telemetry.sims_run == 1  # only the remainder re-executed
        assert grid_cells(grid) == grid_cells(reference)

        # The exported report is byte-identical to the uninterrupted run.
        ref_json = tmp_path / "ref.json"
        res_json = tmp_path / "res.json"
        write_json(reference, ref_json, budget_fraction=0.02)
        write_json(grid, res_json, budget_fraction=0.02)
        assert ref_json.read_bytes() == res_json.read_bytes()

        state = load_run(cache_dir / RUNS_DIRNAME, "r1")
        assert state.status == "complete"
        assert state.resumes == 1

    def test_resume_with_evicted_cache_entry_reexecutes(
            self, fresh_trace_cache, tmp_path):
        reference = self._reference(tmp_path)
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)

        # Lose the cached artifact behind the journaled-complete cell:
        # resume must demote it to a rebuild, not trust a phantom.
        with closing(ResultCache(cache_dir / "results")) as cache:
            cache.clear()
        resumed = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=cache_dir, resume="r1")
        grid = resumed.run_grid(WORKLOADS, PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.resumed_cells == 0
        assert telemetry.sims_run == 2
        assert grid_cells(grid) == grid_cells(reference)

    def test_fingerprint_mismatch_refused(self, fresh_trace_cache, tmp_path):
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)
        other = GridRunner(budget_fraction=0.03, jobs=1,
                           cache_dir=cache_dir, resume="r1")
        with pytest.raises(JournalError, match="different grid"):
            other.run_grid(WORKLOADS, PREFETCHERS)

    def test_resume_of_journal_without_intent_refused(
            self, fresh_trace_cache, tmp_path):
        # An OS crash can leave a run's journal empty; resume says what
        # happened instead of reporting a fingerprint mismatch.
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)
        (cache_dir / RUNS_DIRNAME / "r1" / "journal.jsonl").write_bytes(b"")
        resumed = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=cache_dir, resume="r1")
        with pytest.raises(JournalError, match="without --resume"):
            resumed.run_grid(WORKLOADS, PREFETCHERS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_needs_a_cache_dir(self, fresh_trace_cache, tmp_path,
                                      jobs):
        from repro.common.errors import ExecError

        runner = GridRunner(budget_fraction=0.02, jobs=jobs, resume="r1",
                            result_cache=False)
        with pytest.raises(ExecError, match="cache directory"):
            runner.run_grid(WORKLOADS, PREFETCHERS)

    def test_resume_of_unknown_run_refused_without_result_cache(
            self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path,
                            result_cache=False, resume="no-such-run")
        with pytest.raises(JournalError, match="known runs"):
            runner.run_grid(WORKLOADS, PREFETCHERS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_done_fires_after_simulations_only(self, fresh_trace_cache,
                                                    tmp_path, jobs):
        # The first completed task at jobs>1 is the trace build; the
        # fault site must still count the first completed simulation.
        faults.install(FaultSpec(site="task-done", kind="crash", at=1))
        runner = GridRunner(budget_fraction=0.02, jobs=jobs,
                            cache_dir=tmp_path, run_id="r1")
        with pytest.raises(InjectedCrash):
            runner.run_grid(WORKLOADS, PREFETCHERS)
        faults.deactivate()
        state = load_run(tmp_path / RUNS_DIRNAME, "r1")
        assert state.describe_status() == "interrupted"
        assert len(state.completed) == 1

    def test_list_runs_summarizes(self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=tmp_path, run_id="listed")
        runner.run_grid(WORKLOADS, PREFETCHERS)
        summaries = list_runs(tmp_path / RUNS_DIRNAME)
        assert [s.run_id for s in summaries] == ["listed"]
        assert summaries[0].status == "complete"
        assert summaries[0].cells_done == 2
        assert summaries[0].cells_total == 2

    def test_list_runs_skips_corrupt_and_empty_dirs(self, fresh_trace_cache,
                                                    tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=tmp_path, run_id="good")
        runner.run_grid(WORKLOADS, PREFETCHERS)
        runs_root = tmp_path / RUNS_DIRNAME
        # A directory with no journal at all.
        (runs_root / "empty-dir").mkdir()
        # A directory whose journal is wholly corrupt.
        corrupt = runs_root / "corrupt"
        corrupt.mkdir()
        (corrupt / "journal.jsonl").write_text("not a journal line\n")
        # A zero-byte journal.
        hollow = runs_root / "hollow"
        hollow.mkdir()
        (hollow / "journal.jsonl").write_text("")
        # A stray file (not a run directory) next to them.
        (runs_root / "stray.txt").write_text("noise")

        skipped = []
        summaries = list_runs(
            runs_root, on_skip=lambda run, why: skipped.append((run, why)))
        assert [s.run_id for s in summaries] == ["good"]
        assert sorted(run for run, _ in skipped) == [
            "corrupt", "empty-dir", "hollow"]
        reasons = dict(skipped)
        assert "no journal" in reasons["empty-dir"]
        assert "empty or wholly corrupt" in reasons["corrupt"]
        assert "empty or wholly corrupt" in reasons["hollow"]

    def test_list_runs_sorts_newest_first(self, fresh_trace_cache,
                                          tmp_path):
        for run_id in ("first", "second"):
            GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path,
                       run_id=run_id).run_grid(WORKLOADS, PREFETCHERS)
        summaries = list_runs(tmp_path / RUNS_DIRNAME)
        starts = [s.started_at for s in summaries]
        assert starts == sorted(starts, reverse=True)


class TestLostWrites:
    """Neither the result cache nor the journal fsyncs (DESIGN.md §8), so
    an OS crash or power cut can lose any write the kernel had not yet
    flushed.  What it loses must cost re-simulation, never a result."""

    PREFETCHERS = ["no-prefetch", "stride", "ghb-pc/dc", "sms", "cbws"]

    def _run(self, cache_dir, **kwargs):
        return GridRunner(budget_fraction=0.02, jobs=1, cache_dir=cache_dir,
                          **kwargs).run_grid(WORKLOADS, self.PREFETCHERS)

    def test_resume_after_lost_writes_rebuilds_only_damaged_cells(
            self, fresh_trace_cache, tmp_path):
        reference = self._run(tmp_path / "ref", run_id="ref")
        clear_trace_cache()
        cache_dir = tmp_path / "crash"
        faults.install(FaultSpec(site="task-done", kind="crash", at=4))
        with pytest.raises(InjectedCrash):
            self._run(cache_dir, run_id="r1")
        faults.deactivate()
        clear_trace_cache()

        # Play the crash's lost writes: one cache entry never reached
        # the disk, two were published but their data was not, and the
        # journal lost the second half of its last record.
        journal_path = cache_dir / RUNS_DIRNAME / "r1" / "journal.jsonl"
        completed = list(replay(journal_path).completed.items())
        assert len(completed) == 4
        results = cache_dir / "results"
        (deleted, deleted_key), *truncated, (kept, _) = completed
        rewrite_envelope(results, lambda _: None, deleted_key)
        for _, key in truncated:
            rewrite_envelope(results, lambda _: "", key)
        data = journal_path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        journal_path.write_bytes(data[:last + (len(data) - last) // 2])
        cut = replay(journal_path)
        assert cut.torn_lines == 1
        assert kept not in cut.completed

        grid = self._run(cache_dir, resume="r1")
        telemetry = telemetry_module.LAST_RUN
        simulated = {timing.name for timing in telemetry.task_times}
        never_run = [("nw", p) for p in self.PREFETCHERS
                     if ("nw", p) not in dict(completed)]
        damaged = [deleted, *(cell for cell, _ in truncated)]
        assert simulated == {f"sim:{w}:{p}" for w, p in damaged + never_run}
        assert telemetry.cache_hits == 1  # the kept cell, unjournaled

        ref_json = tmp_path / "ref.json"
        res_json = tmp_path / "res.json"
        write_json(reference, ref_json, budget_fraction=0.02)
        write_json(grid, res_json, budget_fraction=0.02)
        assert ref_json.read_bytes() == res_json.read_bytes()
        assert load_run(cache_dir / RUNS_DIRNAME, "r1").status == "complete"

    def test_fsync_calls_do_not_grow_with_cells(self, fresh_trace_cache,
                                                tmp_path, monkeypatch):
        # Earlier versions fsync'd every cache entry and journal record,
        # two calls per simulated cell; DESIGN.md §8 keeps no barrier.
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        counts = []
        for size in (1, len(self.PREFETCHERS)):
            before = len(calls)
            GridRunner(budget_fraction=0.02, jobs=1,
                       cache_dir=tmp_path / str(size)).run_grid(
                WORKLOADS, self.PREFETCHERS[:size])
            counts.append(len(calls) - before)
        assert counts == [0, 0]


class TestCli:
    def _run(self, tmp_path, *extra):
        return main([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--budget-fraction", "0.02", "--jobs", "1",
            "--cache-dir", str(tmp_path), *extra,
        ])

    def test_runs_list(self, fresh_trace_cache, tmp_path, capsys):
        assert self._run(tmp_path, "--run-id", "cli-run") == 0
        capsys.readouterr()
        assert main(["runs", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-run" in out
        assert "complete" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "no journaled runs" in capsys.readouterr().out

    def test_resume_flag_round_trips(self, fresh_trace_cache, tmp_path,
                                     capsys):
        assert self._run(tmp_path, "--run-id", "cli-run") == 0
        clear_trace_cache()
        assert self._run(tmp_path, "--resume", "cli-run") == 0
        out = capsys.readouterr().out
        assert "stride" in out
        assert telemetry_module.LAST_RUN.resumed_cells == 1

    def test_verify_artifacts_clean(self, fresh_trace_cache, tmp_path,
                                    capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

    def test_verify_artifacts_flags_and_purges(self, fresh_trace_cache,
                                               stream_trace, tmp_path,
                                               capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        ingested = tmp_path / "ingest" / "stream-0123456789ab.trace"
        ingested.parent.mkdir()
        write_trace(stream_trace, ingested)
        faults.bitflip_file(ingested, -3)

        def corrupt(text):
            document = json.loads(text)
            document["result"]["instructions"] += 1  # silent corruption
            return json.dumps(document)

        results = tmp_path / "results"
        key = rewrite_envelope(results, corrupt)

        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "checksum" in err

        assert main(["verify-artifacts", "--cache-dir", str(tmp_path),
                     "--purge"]) == 0
        capsys.readouterr()
        assert not ingested.exists()
        with closing(ResultCache(results)) as cache:
            assert not cache.contains(key)
        # After the purge everything left verifies.
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 0


class TestCliCrashResume:
    """End-to-end: a subprocess killed mid-grid resumes bit-identically."""

    def _invoke(self, tmp_path, cache_dir, json_out, run_args, env_faults):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src,
               "REPRO_CACHE_DIR": str(cache_dir)}
        env.pop("REPRO_FAULTS", None)
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        return subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--workload", "nw", "--prefetcher", "all",
             "--budget-fraction", "0.02", "--jobs", "1",
             "--json", str(json_out), *run_args],
            env=env, capture_output=True, text=True,
        )

    def test_exit_injection_then_resume(self, tmp_path):
        reference = self._invoke(tmp_path, tmp_path / "ref",
                                 tmp_path / "ref.json", ["--run-id", "ref"],
                                 None)
        assert reference.returncode == 0, reference.stderr

        # Kill the process for real after the third completed task.
        killed = self._invoke(tmp_path, tmp_path / "smoke",
                              tmp_path / "killed.json",
                              ["--run-id", "smoke"], "task-done:exit@3")
        assert killed.returncode == faults.EXIT_CODE

        resumed = self._invoke(tmp_path, tmp_path / "smoke",
                               tmp_path / "smoke.json",
                               ["--resume", "smoke"], None)
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "ref.json").read_bytes() == \
            (tmp_path / "smoke.json").read_bytes()
