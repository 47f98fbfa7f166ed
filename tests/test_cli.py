"""Tests for the command-line interface."""

from contextlib import closing

import pytest

from repro.cli import main
from repro.exec.cache import ResultCache

from conftest import rewrite_envelope


class TestList:
    def test_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "stencil-default" in out
        assert "458.sjeng-ref" in out
        assert out.count("\n") >= 30

    def test_prefetchers(self, capsys):
        assert main(["list", "prefetchers"]) == 0
        out = capsys.readouterr().out
        assert "cbws+sms" in out and "ghb-pc/dc" in out


class TestRun:
    def test_single_cell(self, capsys):
        code = main([
            "run", "--workload", "nw", "--prefetcher", "cbws",
            "--budget-fraction", "0.03",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "nw" in out and "cbws" in out
        assert "IPC" in out

    def test_unknown_workload_fails_cleanly(self, capsys):
        code = main([
            "run", "--workload", "nope", "--prefetcher", "cbws",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_misspelt_fault_site_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "task-don:exit@3")
        assert main(["list", "prefetchers"]) == 1
        assert "unknown fault site 'task-don'" in capsys.readouterr().err


class TestExperiments:
    def test_table3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1", "--budget-fraction", "0.05"]) == 0
        assert "CBWS0" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure", "1", "--budget-fraction", "0.03"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestTraceRoundTrip:
    def test_trace_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "nw.trace"
        assert main([
            "trace", "--workload", "nw", "--out", str(path),
            "--accesses", "500",
        ]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "memory accesses:   500" in out
        assert "loop fraction:" in out

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"not a trace")
        assert main(["inspect", str(path)]) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])


class TestBenchCli:
    @pytest.mark.parametrize("args, error", [
        (["--baseline", "BENCH.json", "--out", "BENCH.json", "--check"],
         "is the --baseline file"),
        (["--baseline", "BENCH.json", "--out", "./sub/../BENCH.json"],
         "is the --baseline file"),
        (["--check"], "--check requires --baseline"),
    ])
    def test_refusals_come_before_any_work(self, tmp_path, capsys,
                                           monkeypatch, args, error):
        import repro.harness.bench as bench

        baseline = tmp_path / "BENCH.json"
        baseline.write_text('{"committed": true}\n')
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run_bench", lambda **_: pytest.fail(
            "simulated before refusing"))
        assert main(["bench", "--quick", "--no-progress", *args]) == 2
        assert error in capsys.readouterr().err
        assert baseline.read_text() == '{"committed": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["BENCH.json", "sub"]


class TestJsonExport:
    def test_run_with_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "out.json"
        code = main([
            "run", "--workload", "nw", "--prefetcher", "cbws",
            "--budget-fraction", "0.03", "--json", str(path),
        ])
        assert code == 0
        document = json.loads(path.read_text())
        assert document["results"][0]["workload"] == "nw"
        assert document["metadata"]["budget_fraction"] == 0.03


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_dunder_version_is_set(self):
        import repro

        major = repro.__version__.split(".")[0]
        assert major.isdigit()


class TestKeyboardInterrupt:
    def test_ctrl_c_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        # build_parser runs inside main(), so the parser's handler
        # default picks up the patched module global.
        monkeypatch.setattr(cli, "_cmd_list", interrupted)
        code = main(["list", "workloads"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestCampaignCli:
    SPEC = {
        "version": 1,
        "name": "cli-tiny",
        "base": {
            "workloads": ["nw"],
            "prefetchers": ["stride", "cbws"],
            "budget_fraction": 0.02,
        },
        "axes": [
            {"name": "cbws.table_entries", "log2_range": [1, 4]},
        ],
    }

    def write_spec(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_run_status_report_round_trip(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", str(spec), "--id", "t",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "campaign t: complete" in out

        assert main(["campaign", "status", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "t" in out and "complete" in out

        json_path = tmp_path / "cache" / "campaigns" / "t" / "campaign.json"
        before = json_path.read_bytes()
        assert main(["campaign", "report", "t", "--jobs", "1",
                     "--cache-dir", cache]) == 0
        assert json_path.read_bytes() == before

    def test_duplicate_id_fails_cleanly(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", str(spec), "--id", "t",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(spec), "--id", "t",
                     "--jobs", "1", "--cache-dir", cache]) == 1
        assert "already exists" in capsys.readouterr().err

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        assert main(["campaign", "run", str(path),
                     "--cache-dir", str(tmp_path / "c")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_status_empty_dir(self, tmp_path, capsys):
        assert main(["campaign", "status",
                     "--cache-dir", str(tmp_path / "nothing")]) == 0
        assert "no campaigns" in capsys.readouterr().out


class TestCacheGcCli:
    def test_gc_census_and_eviction(self, tmp_path, capsys):
        results = tmp_path / "cache" / "results"
        rewrite_envelope(results, lambda _: "x" * 50, "one", written=1.0)
        rewrite_envelope(results, lambda _: "y" * 50, "two", written=2.0)
        cache = str(tmp_path / "cache")

        assert main(["cache", "gc", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "census" in out and "scanned 2" in out

        assert main(["cache", "gc", "--cache-dir", cache,
                     "--max-bytes", "60", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict 1" in out
        with closing(ResultCache(results)) as store:
            assert len(store) == 2

        assert main(["cache", "gc", "--cache-dir", cache,
                     "--max-bytes", "60"]) == 0
        with closing(ResultCache(results)) as store:
            assert len(store) == 1 and store.contains("two")

    def test_gc_deletes_old_layout_files(self, tmp_path, capsys):
        """Files of the one-file-per-entry layout are counted, kept by
        a dry run and deleted by a real pass; the store's rows stay."""
        results = tmp_path / "cache" / "results"
        rewrite_envelope(results, lambda _: "x" * 50, "kept", written=1.0)
        old = [results / "ab" / "ab01.json", results / "ab" / "ab02.json",
               results / "cd" / "cd03.json"]
        for path in old:
            path.parent.mkdir(exist_ok=True)
            path.write_text("y" * 100)
        cache = str(tmp_path / "cache")

        assert main(["cache", "gc", "--cache-dir", cache, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would delete 3 old-layout result file(s), 300 bytes" in out
        assert all(path.exists() for path in old)

        assert main(["cache", "gc", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "deleted 3 old-layout result file(s), 300 bytes" in out
        assert sorted(p.name for p in results.iterdir()
                      if p.is_dir()) == []
        with closing(ResultCache(results)) as store:
            assert len(store) == 1 and store.contains("kept")

        assert main(["cache", "gc", "--cache-dir", cache]) == 0
        assert "old-layout" not in capsys.readouterr().out

    def test_gc_missing_cache_dir(self, tmp_path, capsys):
        assert main(["cache", "gc",
                     "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "no result cache" in capsys.readouterr().out

    def test_bad_size_fails_cleanly(self, tmp_path, capsys):
        results = tmp_path / "cache" / "results"
        results.mkdir(parents=True)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "cache"),
                     "--max-bytes", "lots"]) == 1
        assert "cannot parse size" in capsys.readouterr().err
