"""Campaign execution: journaling, crash/resume, bit-identical reports."""

import json

import pytest

from repro.campaign.report import build_report, write_report
from repro.campaign.runner import (
    list_campaigns,
    replay_campaign,
    run_campaign,
)
from repro.campaign.spec import SPEC_VERSION, parse_spec
from repro.cli import main
from repro.common.errors import CampaignError, InjectedCrash
from repro.exec import faults
from repro.exec.cache import ResultCache
from repro.exec.faults import parse_fault_plan
from repro.exec.scheduler import ExecOptions
from repro.trace.io import write_trace

from conftest import rewrite_envelope


@pytest.fixture(autouse=True)
def _no_lingering_faults():
    faults.deactivate()
    yield
    faults.deactivate()


def tiny_spec(**overrides):
    """2 workloads-free tiny campaign: 1 workload x 2 prefetchers x 4x2."""
    document = {
        "version": SPEC_VERSION,
        "name": "tiny",
        "base": {
            "workloads": ["nw"],
            "prefetchers": ["stride", "cbws"],
            "budget_fraction": 0.02,
        },
        "axes": [
            {"name": "cbws.table_entries", "log2_range": [1, 8]},
            {"name": "l2_kb", "values": [64, 128]},
        ],
    }
    document.update(overrides)
    return parse_spec(document)


def flip_spec():
    """A spec whose CBWS-vs-SMS winner genuinely flips along the
    history-size axis (md-linpack: SMS wins through 32 entries)."""
    return parse_spec({
        "version": SPEC_VERSION,
        "name": "flip",
        "base": {
            "workloads": ["md-linpack"],
            "prefetchers": ["sms", "cbws"],
            "budget_fraction": 0.05,
        },
        "axes": [{"name": "cbws.table_entries", "log2_range": [1, 64]}],
        "refine": {
            "metric": "ipc",
            "axes": ["cbws.table_entries"],
            "competitors": ["cbws", "sms"],
            "max_cells": 16,
            "max_waves": 2,
        },
    })


class TestRun:
    def test_complete_run_journal_and_report(self, tmp_path):
        outcome = run_campaign(tiny_spec(), tmp_path)
        assert outcome.status == "complete"
        # stride collapses along the 4-value cbws axis: 2 unique stride
        # cells + 8 cbws cells.
        assert outcome.cells_total == 10
        assert len(outcome.results) == 10
        assert not outcome.quarantined_keys

        state = replay_campaign(outcome.directory / "journal.jsonl")
        assert state.status == "complete"
        assert state.wave_keys[0] == [
            cell.request.node().key for cell in outcome.waves[0].cells]
        assert state.completed_keys == set(outcome.results)

        artifacts = write_report(outcome)
        report = json.loads(artifacts["json"].read_text())
        assert report["schema"] == "repro.campaign"
        assert report["planning"]["totals"]["unique"] == 10
        html = artifacts["html"].read_text()
        assert "<svg" in html and "campaign" in html.lower()

    def test_report_excludes_run_dependent_fields(self, tmp_path):
        outcome = run_campaign(tiny_spec(), tmp_path)
        report = build_report(outcome)
        text = json.dumps(report)
        assert outcome.campaign_id not in text
        assert "wall_seconds" not in text
        assert "cache_hits" not in text

    def test_unknown_executor_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown executor"):
            run_campaign(tiny_spec(), tmp_path, executor="carrier-pigeon")

    def test_fresh_run_refuses_existing_id(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path, campaign_id="dup")
        with pytest.raises(CampaignError, match="already exists"):
            run_campaign(tiny_spec(), tmp_path, campaign_id="dup")

    def test_list_campaigns_reports_status(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path, campaign_id="one")
        rows = list_campaigns(tmp_path)
        assert [row["campaign_id"] for row in rows] == ["one"]
        assert rows[0]["status"] == "complete"
        assert rows[0]["cells_done"] == rows[0]["cells_planned"] == 10

    def test_traces_share_the_cache_dir_and_verify(self, fresh_trace_cache,
                                                   stream_trace, tmp_path,
                                                   capsys):
        run_campaign(tiny_spec(), tmp_path)
        capsys.readouterr()
        # Grid traces stay in memory; the ingest store's files verify.
        assert list(tmp_path.rglob("*.trace")) == []
        ingested = tmp_path / "ingest" / "stream-0123456789ab.trace"
        ingested.parent.mkdir()
        write_trace(stream_trace, ingested)
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 0

        ingested.write_bytes(b"garbage")
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 1
        assert str(ingested) in capsys.readouterr().err

    def test_caller_options_are_not_mutated(self, tmp_path):
        options = ExecOptions(jobs=4, max_retries=1)
        run_campaign(tiny_spec(), tmp_path, jobs=1, options=options)
        assert options == ExecOptions(jobs=4, max_retries=1)


class TestWaveExecution:
    def test_wave_over_two_configs_runs_in_one_call(self, tmp_path,
                                                    monkeypatch):
        from repro.campaign import runner as campaign_runner
        from repro.exec.plan import GridPlan
        from repro.exec.scheduler import execute_grid

        calls = []

        def counting(plan, **kwargs):
            calls.append(plan)
            return execute_grid(plan, **kwargs)

        monkeypatch.setattr(campaign_runner, "execute_grid", counting)
        spec = tiny_spec(axes=[{"name": "l1_kb", "values": [4, 8]}])
        outcome = run_campaign(spec, tmp_path / "one")
        assert len(calls) == 1
        (wave,) = outcome.waves
        assert {cell.request.overrides for cell in wave.cells} == {
            (("l1_kb", 4),), (("l1_kb", 8),)}

        # The same cells, one config group at a time.
        cache = ResultCache(tmp_path / "grouped")
        for l1_kb in (4, 8):
            nodes = [node for cell, node in zip(wave.cells, wave.nodes)
                     if cell.request.overrides == (("l1_kb", l1_kb),)]
            results, _ = execute_grid(GridPlan(nodes), cache=cache,
                                      options=ExecOptions(jobs=1))
            for node in nodes:
                assert (results[node].to_dict()
                        == outcome.results[node.key].to_dict())


class TestResume:
    def test_resume_needs_id_and_known_campaign(self, tmp_path):
        with pytest.raises(CampaignError, match="needs the campaign id"):
            run_campaign(tiny_spec(), tmp_path, resume=True)
        with pytest.raises(CampaignError, match="no campaign"):
            run_campaign(tiny_spec(), tmp_path, resume=True,
                         campaign_id="ghost")

    def test_resume_rejects_different_spec(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path, campaign_id="c")
        other = tiny_spec(name="other")
        with pytest.raises(CampaignError, match="different.*spec"):
            run_campaign(other, tmp_path, resume=True, campaign_id="c")

    def test_resume_of_complete_run_recomputes_zero(self, tmp_path):
        first = run_campaign(tiny_spec(), tmp_path, campaign_id="c")
        again = run_campaign(tiny_spec(), tmp_path, resume=True,
                             campaign_id="c")
        assert again.execution["sims_run"] == 0
        assert again.execution["cache_hits"] == first.cells_total
        assert build_report(again) == build_report(first)

    def test_crash_mid_wave_then_resume_is_bit_identical(self, tmp_path):
        # Uninterrupted control run in its own cache dir.
        control_dir = tmp_path / "control"
        control = run_campaign(tiny_spec(), control_dir, campaign_id="c")
        control_report = json.dumps(build_report(control), sort_keys=True)

        # Crash after the 4th cell of wave 0.
        crash_dir = tmp_path / "crashed"
        faults.install(parse_fault_plan("task-done:crash@4"))
        with pytest.raises(InjectedCrash):
            run_campaign(tiny_spec(), crash_dir, campaign_id="c")
        faults.deactivate()

        state = replay_campaign(
            crash_dir / "campaigns" / "c" / "journal.jsonl")
        journaled = len(state.completed_keys)
        assert 0 < journaled < control.cells_total
        assert state.status is None  # no run-finished record

        resumed = run_campaign(tiny_spec(), crash_dir, resume=True,
                               campaign_id="c")
        assert resumed.status == "complete"
        # Zero journaled cells recomputed: only the remainder simulated.
        assert resumed.execution["sims_run"] == (
            control.cells_total - journaled)
        assert resumed.execution["cache_hits"] == journaled
        assert (json.dumps(build_report(resumed), sort_keys=True)
                == control_report)

    def test_resumed_report_file_is_byte_identical(self, tmp_path):
        control_dir = tmp_path / "control"
        control = run_campaign(tiny_spec(), control_dir, campaign_id="c")
        control_bytes = write_report(control)["json"].read_bytes()

        crash_dir = tmp_path / "crashed"
        faults.install(parse_fault_plan("task-done:crash@6"))
        with pytest.raises(InjectedCrash):
            run_campaign(tiny_spec(), crash_dir, campaign_id="c")
        faults.deactivate()
        resumed = run_campaign(tiny_spec(), crash_dir, resume=True,
                               campaign_id="c")
        assert (write_report(resumed)["json"].read_bytes()
                == control_bytes)


class TestRefinement:
    def test_history_axis_winner_flip_is_subdivided(self, tmp_path):
        outcome = run_campaign(flip_spec(), tmp_path, jobs=1)
        flips = [interval for interval in outcome.intervals
                 if interval.reason == "winner-flip"]
        assert flips, "expected a CBWS-vs-SMS flip on the history axis"
        first = flips[0]
        assert first.axis == "cbws.table_entries"
        assert (first.lo, first.hi) == (32, 64)
        assert first.midpoint == 45  # geometric midpoint, snapped to int
        # The refinement wave actually planned and ran the midpoint cell.
        assert len(outcome.waves) > 1
        wave1_values = {cell.coord("cbws.table_entries")
                        for cell in outcome.waves[1].cells}
        assert 45 in wave1_values
        report = build_report(outcome)
        assert report["refinement"]["waves"] >= 1
        assert any(entry["reason"] == "winner-flip"
                   for entry in report["refinement"]["intervals"])

    def test_crash_during_refine_wave_resumes_identically(self, tmp_path):
        control_dir = tmp_path / "control"
        control = run_campaign(flip_spec(), control_dir, campaign_id="c")
        assert len(control.waves) > 1
        wave0 = control.waves[0].unique

        crash_dir = tmp_path / "crashed"
        # Crash inside the first refinement wave (after wave 0 finished).
        faults.install(parse_fault_plan(f"task-done:crash@{wave0 + 1}"))
        with pytest.raises(InjectedCrash):
            run_campaign(flip_spec(), crash_dir, campaign_id="c")
        faults.deactivate()

        state = replay_campaign(
            crash_dir / "campaigns" / "c" / "journal.jsonl")
        assert len(state.wave_keys) >= 2  # wave 1 intent was journaled

        resumed = run_campaign(flip_spec(), crash_dir, resume=True,
                               campaign_id="c")
        assert (json.dumps(build_report(resumed), sort_keys=True)
                == json.dumps(build_report(control), sort_keys=True))


class TestCacheGc:
    def make_cache(self, tmp_path, entries):
        for index, age in enumerate(entries):
            rewrite_envelope(tmp_path / "results", lambda _: "x" * 100,
                             f"entry{index}", written=1000.0 - age)
        return ResultCache(tmp_path / "results")

    def test_census_with_no_bounds(self, tmp_path):
        cache = self.make_cache(tmp_path, [0, 10, 20])
        stats = cache.gc(now=1000.0)
        assert stats.scanned == 3 and stats.evicted == 0
        assert stats.bytes_total == 300

    def test_age_eviction(self, tmp_path):
        cache = self.make_cache(tmp_path, [0, 10, 20])
        stats = cache.gc(max_age_seconds=15.0, now=1000.0)
        assert stats.evicted == 1 and stats.evicted_by_age == 1
        assert stats.kept == 2
        assert len(cache) == 2

    def test_size_eviction_is_oldest_first(self, tmp_path):
        cache = self.make_cache(tmp_path, [0, 10, 20])
        stats = cache.gc(max_bytes=150, now=1000.0)
        assert stats.evicted == 2 and stats.evicted_by_size == 2
        survivors = [key for key in ("entry0", "entry1", "entry2")
                     if cache.contains(key)]
        assert survivors == ["entry0"]  # newest

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = self.make_cache(tmp_path, [0, 10, 20])
        stats = cache.gc(max_bytes=0, now=1000.0, dry_run=True)
        assert stats.evicted == 3 and stats.dry_run
        assert len(cache) == 3

    def test_age_then_size_compose(self, tmp_path):
        cache = self.make_cache(tmp_path, [0, 10, 20, 30])
        stats = cache.gc(max_bytes=100, max_age_seconds=25.0, now=1000.0)
        assert stats.evicted_by_age == 1  # the 30s-old entry
        assert stats.evicted_by_size == 2  # then down to one entry
        assert stats.kept == 1
