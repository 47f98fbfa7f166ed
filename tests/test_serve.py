"""End-to-end tests for the simulation service.

A module-scoped :class:`~repro.serve.http.ThreadedServer` keeps the
cost of real simulations down: every HTTP test shares one server (and
its result cache), using tiny ``nw`` cells at a 2% access budget.
Broker-level semantics (admission bounds, drain refusal) are tested
synchronously without HTTP, and the SIGTERM drain path runs the real
``python -m repro serve`` in a subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.broker import AdmissionFull, Broker, Draining
from repro.serve.client import (
    ConnectionFailed,
    DeadlineExceeded,
    JobNotFound,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ServerBusy,
)
from repro.serve.http import ThreadedServer
from repro.serve.loadgen import (
    SERVE_BENCH_SCHEMA,
    LoadgenConfig,
    build_plan,
    run_loadgen,
)
from repro.serve.protocol import JobStatus, ProtocolError, SimulateRequest
from repro.sim.results import SimResult

#: Cheap enough that a whole module of tests stays in seconds.
BUDGET = 0.02


def request(prefetcher: str = "stride", seed: int = 0,
            workload: str = "nw") -> SimulateRequest:
    return SimulateRequest(workload=workload, prefetcher=prefetcher,
                           budget_fraction=BUDGET, seed=seed)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with ThreadedServer(host="127.0.0.1", port=0, workers=1,
                        cache_dir=cache_dir, batch_window=0.01) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    client = ServeClient("127.0.0.1", server.port)
    client.wait_until_ready()
    return client


class TestEndpoints:
    def test_healthz_reports_version(self, client):
        import repro

        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["draining"] is False

    def test_readyz_while_serving(self, client):
        assert client.ready() is True

    def test_metrics_exposition(self, client):
        from repro.obs.prometheus import parse_prometheus

        client.run(request("no-prefetch"))
        metrics = parse_prometheus(client.metrics_text())
        assert metrics["repro_serve_requests_total"] >= 1
        assert "repro_serve_pending_jobs" in metrics
        assert "repro_serve_workers" in metrics

    def test_unknown_job_404(self, client):
        with pytest.raises(JobNotFound):
            client.job("nope00000000")

    def test_unknown_path_404(self, client):
        status, _, _ = client._request("GET", "/v2/everything")
        assert status == 404

    def test_wrong_method_405(self, client):
        status, _, _ = client._request("GET", "/v1/simulate")
        assert status == 405

    def test_malformed_body_400(self, client):
        status, _, raw = client._request("POST", "/v1/simulate",
                                         body={"workload": "nw"})
        assert status == 400
        assert "version" in json.loads(raw)["error"]["message"]

    def test_unknown_version_400(self, client):
        body = request().to_dict()
        body["version"] = 99
        status, _, raw = client._request("POST", "/v1/simulate", body=body)
        assert status == 400
        assert "unsupported" in json.loads(raw)["error"]["message"]

    def test_unknown_workload_400(self, client):
        with pytest.raises(ProtocolError):
            # Passes wire validation, fails registry resolution: still 400.
            client.submit(request(workload="not-a-workload"))

    @pytest.mark.parametrize("config,kind,named", [
        # Parses, then the L1's CacheConfig refuses 3 ways.
        ({"l1": {"associativity": 3}}, "ConfigError", "L1D"),
        ({"l1": {"warp": 1}}, "ProtocolError", "'l1.warp'"),
        ({"l3_kb": 1024}, "ProtocolError", "'l3_kb'"),
        ({"core": {"warp_drive": 9}}, "ProtocolError", "'core.warp_drive'"),
    ])
    def test_bad_config_400_without_traceback(self, client, caplog, config,
                                              kind, named):
        body = {**request().to_dict(), "config": config}
        with caplog.at_level("DEBUG"):
            status, _, raw = client._request("POST", "/v1/simulate",
                                             body=body)
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["type"] == kind
        assert named in error["message"]
        assert "Traceback" not in raw.decode()
        assert not [record for record in caplog.records if record.exc_info]


class TestSimulation:
    def test_submit_and_wait_produces_result(self, client):
        view = client.run(request("stride"))
        assert view.status is JobStatus.DONE
        assert view.error is None
        assert view.wall_seconds is not None and view.wall_seconds >= 0
        result = SimResult.from_dict(view.result)
        assert result.workload == "nw" and result.prefetcher == "stride"
        assert result.instructions > 0

    def test_results_bit_identical_to_cli_run(self, client, tmp_path):
        from repro.harness.runner import GridRunner

        served = SimResult.from_dict(client.run(request("cbws")).result)
        runner = GridRunner(
            budget_fraction=BUDGET,
            seed=0,
            cache_dir=tmp_path,
            jobs=1,
            result_cache=False,
        )
        local = runner.run_grid(["nw"], ["cbws"]).get("nw", "cbws")
        assert served == local

    def test_repeat_request_is_a_cache_hit(self, client):
        first = client.run(request("no-prefetch", seed=11))
        again = client.run(request("no-prefetch", seed=11))
        assert first.status is JobStatus.DONE
        assert again.status is JobStatus.DONE
        assert again.cache_hit is True
        assert again.result == first.result

    def test_concurrent_identical_submits_single_flight(self, client):
        from repro.obs.prometheus import parse_prometheus

        before = parse_prometheus(client.metrics_text())
        fresh = request("stride", seed=23)
        views = []
        errors = []

        def go():
            try:
                views.append(client.run(fresh))
            except Exception as error:  # surfaced in the assertion below
                errors.append(error)

        threads = [threading.Thread(target=go) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(views) == 4
        assert all(view.status is JobStatus.DONE for view in views)
        assert len({view.job_id for view in views}) == 1
        assert len({json.dumps(view.result, sort_keys=True)
                    for view in views}) == 1
        after = parse_prometheus(client.metrics_text())
        dedup = (after["repro_serve_deduplicated_total"]
                 - before.get("repro_serve_deduplicated_total", 0.0))
        executed = (after["repro_serve_cells_executed_total"]
                    - before.get("repro_serve_cells_executed_total", 0.0))
        assert dedup >= 3
        assert executed <= 1

    def test_sse_stream_replays_to_terminal(self, client):
        view = client.submit(request("stride", seed=31))
        events = list(client.stream_events(view.job_id, timeout=60))
        names = [event["_event"] for event in events]
        assert names[0] == "queued"
        assert names[-1] == "terminal"
        terminal = events[-1]
        assert terminal["job"]["status"] in ("done", "failed")
        assert terminal["job"]["job_id"] == view.job_id


class TestCampaignOverServe:
    def test_cache_shape_axes_match_the_grid(self, server, tmp_path):
        """A campaign sweeping cache shape runs through the server and
        yields the grid executor's keys and result digests."""
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import SPEC_VERSION, parse_spec
        from repro.harness.bench import result_digest

        spec = parse_spec({
            "version": SPEC_VERSION,
            "name": "cache-shape",
            "base": {"workloads": ["nw"], "prefetchers": ["stride"],
                     "budget_fraction": BUDGET},
            "axes": [{"name": "l1.associativity", "values": [2, 8]},
                     {"name": "l2.mshrs", "values": [8, 32]}],
        })
        served = run_campaign(spec, tmp_path / "serve", executor="serve",
                              serve_port=server.port)
        grid = run_campaign(spec, tmp_path / "grid")
        assert served.status == grid.status == "complete"
        assert len(served.results) == 4
        assert served.waves[0].keys == grid.waves[0].keys
        assert ({key: result_digest(result)
                 for key, result in served.results.items()}
                == {key: result_digest(result)
                    for key, result in grid.results.items()})
    def test_results_carry_the_cells_own_spelling(self, server, tmp_path):
        """A campaign cell replayed from a cache entry that another
        spelling of the same geometry wrote keeps its own spelling."""
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import SPEC_VERSION, parse_spec
        from repro.cli import main

        assert main([
            "run", "--workload", "nw",
            "--prefetcher", "cbws[max_step=4,table_entries=2]",
            "--budget-fraction", str(BUDGET), "--cache-dir", str(tmp_path),
        ]) == 0
        spec = parse_spec({
            "version": SPEC_VERSION,
            "name": "spelling",
            "base": {"workloads": ["nw"], "prefetchers": ["cbws"],
                     "budget_fraction": BUDGET},
            "axes": [{"name": "cbws.table_entries", "values": [2, 4]}],
        })
        outcome = run_campaign(spec, tmp_path, executor="serve",
                               serve_port=server.port)
        assert sorted(result.prefetcher
                      for result in outcome.results.values()) == [
            "cbws[table_entries=2]", "cbws[table_entries=4]"]

    def test_counts_cache_hits_and_simulations(self, server, tmp_path):
        """One cell replays from the local cache and the server simulates
        the other: the outcome counts one of each."""
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import SPEC_VERSION, parse_spec
        from repro.cli import main

        assert main([
            "run", "--workload", "nw", "--prefetcher", "cbws[table_entries=8]",
            "--budget-fraction", str(BUDGET), "--cache-dir", str(tmp_path),
        ]) == 0
        spec = parse_spec({
            "version": SPEC_VERSION,
            "name": "counters",
            "base": {"workloads": ["nw"], "prefetchers": ["cbws"],
                     "budget_fraction": BUDGET},
            "axes": [{"name": "cbws.table_entries", "values": [8, 32]}],
        })
        outcome = run_campaign(spec, tmp_path, executor="serve",
                               serve_port=server.port)
        assert len(outcome.results) == 2
        assert outcome.execution["cache_hits"] == 1
        assert outcome.execution["sims_run"] == 1


class TestBackpressureHttp:
    def test_admission_overflow_is_429_with_retry_after(self, tmp_path):
        # max_pending=0 refuses every submission deterministically.
        with ThreadedServer(host="127.0.0.1", port=0, workers=1,
                            cache_dir=tmp_path, max_pending=0) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            client.wait_until_ready()
            with pytest.raises(ServerBusy) as exc:
                client.submit(request())
            assert exc.value.retry_after >= 1.0


class TestBrokerSemantics:
    """Admission logic, synchronously, without HTTP or a batcher."""

    def test_single_flight_join_does_not_consume_admission(self, tmp_path):
        broker = Broker(workers=1, cache_dir=tmp_path, max_pending=2)
        job1, dedup1 = broker.submit(request("stride"))
        job2, dedup2 = broker.submit(request("stride"))
        assert dedup1 is False and dedup2 is True
        assert job2 is job1
        assert broker.counters["serve.deduplicated"] == 1
        # The join did not consume the second admission slot.
        job3, dedup3 = broker.submit(request("cbws"))
        assert dedup3 is False and job3 is not job1

    def test_metrics_report_each_join(self, tmp_path):
        broker = Broker(workers=1, cache_dir=tmp_path)
        leader, _ = broker.submit(request("cbws[table_entries=64,max_step=2]"))
        same, dedup_same = broker.submit(
            request("cbws[table_entries=64,max_step=2]"))
        spelled, dedup_spelled = broker.submit(
            request("cbws[max_step=2,table_entries=64]"))
        assert dedup_same and dedup_spelled
        assert same is leader and spelled is not leader
        counters = broker.metrics()["counters"]
        assert counters["serve.deduplicated"] == 2
        assert counters["serve.requests"] == 3
        assert not [name for name in counters if "singleflight" in name]
        broker.flush_telemetry()
        stats = json.loads((tmp_path / "serve-stats.json").read_text())
        assert stats["counters"]["serve.deduplicated"] == 2
        assert "singleflight" not in stats

    def test_overflow_raises_admission_full(self, tmp_path):
        broker = Broker(workers=1, cache_dir=tmp_path, max_pending=2)
        broker.submit(request("stride"))
        broker.submit(request("cbws"))
        with pytest.raises(AdmissionFull) as exc:
            broker.submit(request("no-prefetch"))
        assert exc.value.retry_after >= 1.0
        assert broker.counters["serve.rejected"] == 1

    def test_draining_refuses_admission(self, tmp_path):
        broker = Broker(workers=1, cache_dir=tmp_path)
        broker.begin_drain()
        with pytest.raises(Draining):
            broker.submit(request())

    def test_bad_workload_fails_at_admission(self, tmp_path):
        from repro.common.errors import ReproError

        broker = Broker(workers=1, cache_dir=tmp_path)
        with pytest.raises(ReproError):
            broker.submit(request(workload="not-a-workload"))
        # Nothing was admitted: the queue stays empty.
        assert broker._queue.qsize() == 0

    @pytest.mark.parametrize("prefetcher, message", [
        ("cbws[table_entries=0]", "table_entries must be positive"),
        ("cbws[table_entries=-3]", "table_entries must be positive"),
        ("cbws+sms[table_entries=0]", "table_entries must be positive"),
        ("cbws[max_step=0]", "max_step must be positive"),
    ])
    def test_bad_cbws_geometry_fails_at_admission(self, tmp_path,
                                                  prefetcher, message):
        from repro.common.errors import ConfigError

        broker = Broker(workers=1, cache_dir=tmp_path)
        with pytest.raises(ConfigError, match=message):
            broker.submit(request(prefetcher))
        assert broker._queue.qsize() == 0


class TestBrokerBatches:
    """Whole batches through a started broker (no HTTP)."""

    @staticmethod
    def _run(tmp_path, requests, batch_window=0.5):
        import asyncio

        async def main():
            broker = Broker(workers=1, cache_dir=tmp_path,
                            batch_window=batch_window)
            await broker.start()
            submitted = [broker.submit(r) for r in requests]
            for job, _ in submitted:
                await job.done.wait()
            await broker.drain()
            return broker, submitted

        return asyncio.run(main())

    def test_prefetcher_spellings_share_one_job(self, tmp_path):
        broker, submitted = self._run(tmp_path, [
            request("cbws[table_entries=64,max_step=2]"),
            request("cbws[max_step=2,table_entries=64]"),
        ])
        (first, dedup1), (second, dedup2) = submitted
        assert (dedup1, dedup2) == (False, True)
        # One execution, two views: each caller keeps its own job id
        # and spelling, in the view and in the result.
        assert second is not first
        assert second.job_id != first.job_id and second.key == first.key
        assert first.status is second.status is JobStatus.DONE
        assert first.view().prefetcher == "cbws[table_entries=64,max_step=2]"
        assert second.view().prefetcher == "cbws[max_step=2,table_entries=64]"
        assert second.result.prefetcher == "cbws[max_step=2,table_entries=64]"
        assert first.result.prefetcher == "cbws[table_entries=64,max_step=2]"
        assert {**second.result.to_dict(), "prefetcher": None} == {
            **first.result.to_dict(), "prefetcher": None}
        assert broker.job(second.job_id) is second
        assert [e["event"] for e in second.events] == [
            e["event"] for e in first.events]
        assert broker.counters["serve.cells_executed"] == 1

    def test_resubmit_after_the_leader_ends_gets_a_new_job(self, tmp_path):
        import asyncio

        async def main():
            broker = Broker(workers=1, cache_dir=tmp_path, batch_window=0.01)
            await broker.start()
            first, _ = broker.submit(request("stride"))
            await first.done.wait()
            second, deduplicated = broker.submit(request("stride"))
            await second.done.wait()
            await broker.drain()
            return broker, first, second, deduplicated

        broker, first, second, deduplicated = asyncio.run(main())
        assert not deduplicated
        assert second is not first and second.job_id != first.job_id
        assert first.status is second.status is JobStatus.DONE
        assert second.cache_hit
        assert broker.counters["serve.deduplicated"] == 0
        assert broker.counters["serve.cells_executed"] == 1

    def test_follower_shares_the_leaders_failure(self, tmp_path,
                                                 monkeypatch):
        from repro.common.errors import PermanentError
        from repro.exec import traces

        def get_trace(node):
            raise PermanentError("no trace")

        monkeypatch.setattr(traces, "get_trace", get_trace)
        broker, submitted = self._run(tmp_path, [
            request("cbws[table_entries=64,max_step=2]"),
            request("cbws[max_step=2,table_entries=64]"),
        ])
        (leader, _), (follower, deduplicated) = submitted
        assert deduplicated and follower is not leader
        assert leader.status is follower.status is JobStatus.FAILED
        assert follower.error == leader.error
        assert follower.result is None
        assert broker.counters["serve.failed"] == 1

    def test_seeds_in_one_batch_keep_their_own_outcomes(self, tmp_path,
                                                        monkeypatch):
        from repro.common.errors import PermanentError
        from repro.exec import traces

        real_get_trace = traces.get_trace

        def get_trace(node):
            if node.seed == 1:
                raise PermanentError("no trace for seed 1")
            return real_get_trace(node)

        monkeypatch.setattr(traces, "get_trace", get_trace)
        broker, submitted = self._run(tmp_path, [
            request("stride", seed=1), request("stride", seed=2),
        ])
        (broken, _), (healthy, _) = submitted
        assert broker.counters["serve.batches"] == 1
        assert broken.status is JobStatus.FAILED
        assert broken.error == "trace build for nw was quarantined"
        assert healthy.status is JobStatus.DONE
        assert healthy.result.prefetcher == "stride"

        def finished(job):
            return [e for e in job.events if e["event"] == "cell-finished"]

        assert finished(broken) == []
        assert len(finished(healthy)) == 1

    def test_cache_hit_does_not_wait_for_its_batch(self, tmp_path):
        self._run(tmp_path, [request("stride")], batch_window=0.01)
        broker, submitted = self._run(tmp_path, [
            request("no-prefetch"), request("stride"),
        ])
        (fresh, _), (cached, _) = submitted
        assert broker.counters["serve.batches"] == 1
        assert (broker.counters["serve.cells_executed"],
                broker.counters["serve.cache_hits"]) == (1, 1)

        def ended(job):
            return job.submitted_monotonic + job.wall_seconds

        assert ended(cached) < ended(fresh)


class TestLoadgen:
    def test_plan_is_seeded_and_stable(self):
        config = LoadgenConfig.quick(seed=3)
        assert build_plan(config) == build_plan(config)
        other = build_plan(LoadgenConfig.quick(seed=4))
        assert build_plan(config) != other

    def test_quick_loadgen_exercises_single_flight(self, server, tmp_path):
        config = LoadgenConfig(
            port=server.port,
            requests=6,
            concurrency=2,
            duplicate_ratio=1.0,
            seed=5,
            workloads=("nw",),
            prefetchers=("no-prefetch", "stride"),
            budget_fraction=BUDGET,
        )
        document = run_loadgen(config)
        assert document["schema"] == SERVE_BENCH_SCHEMA
        totals = document["totals"]
        assert totals["failed"] == 0
        assert totals["dedup_hits"] > 0
        assert totals["dedup_hit_rate"] > 0
        assert totals["submissions"] == 12  # 6 items, every one paired
        latency = document["latency_seconds"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

        from repro.harness.bench import load_bench, write_bench

        out = tmp_path / "BENCH_serve.json"
        write_bench(document, out)
        assert load_bench(out)["schema"] == SERVE_BENCH_SCHEMA


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1].split()[0].rstrip("/)"))
            client = ServeClient("127.0.0.1", port)
            client.wait_until_ready()
            # Leave a job in flight so the drain actually has work to do.
            view = client.submit(request("no-prefetch", seed=47))
            assert view.status in (JobStatus.QUEUED, JobStatus.RUNNING,
                                   JobStatus.DONE)
            process.send_signal(signal.SIGTERM)
            output = process.stdout.read()
            code = process.wait(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert code == 0, output
        assert "draining" in output
        assert "drained cleanly" in output
        # The drain flushed broker telemetry next to the cache.
        stats = json.loads(
            (tmp_path / "cache" / "serve-stats.json").read_text())
        assert stats["counters"]["serve.requests"] >= 1


class TestCliSubcommands:
    def test_submit_roundtrip_through_cli(self, server, capsys):
        from repro.cli import main

        code = main([
            "submit", "--workload", "nw", "--prefetcher", "stride",
            "--budget-fraction", str(BUDGET),
            "--port", str(server.port),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "nw" in out and "stride" in out and "IPC" in out

    def test_loadgen_quick_through_cli(self, server, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "BENCH_serve.json"
        code = main([
            "loadgen", "--quick", "--port", str(server.port),
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dedup hit rate" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == SERVE_BENCH_SCHEMA
        assert document["totals"]["dedup_hits"] > 0


class TestRetryAfterEstimate:
    """The 429 Retry-After hint: sane on cold start, clamped both ways."""

    def make_broker(self, tmp_path, workers=1):
        return Broker(workers=workers, cache_dir=tmp_path, max_pending=0)

    def test_cold_start_scales_backlog_not_flat_guess(self, tmp_path):
        from repro.serve.broker import COLD_START_CELL_SECONDS

        broker = self.make_broker(tmp_path)
        # No job has ever finished; four waves of backlog on one worker.
        broker._pending = 4
        estimate = broker._retry_after_estimate()
        assert estimate == pytest.approx(COLD_START_CELL_SECONDS * 4)

    def test_cold_start_empty_queue_still_meets_floor(self, tmp_path):
        from repro.serve.broker import RETRY_AFTER_FLOOR

        broker = self.make_broker(tmp_path)
        assert broker._retry_after_estimate() >= RETRY_AFTER_FLOOR

    def test_fast_jobs_clamp_to_floor(self, tmp_path):
        from repro.serve.broker import RETRY_AFTER_FLOOR

        broker = self.make_broker(tmp_path)
        broker._recent_seconds.extend([0.01, 0.02, 0.01])
        broker._pending = 1
        assert broker._retry_after_estimate() == RETRY_AFTER_FLOOR

    def test_slow_backlog_clamps_to_cap(self, tmp_path):
        from repro.serve.broker import RETRY_AFTER_CAP

        broker = self.make_broker(tmp_path)
        broker._recent_seconds.extend([30.0, 45.0])
        broker._pending = 64
        assert broker._retry_after_estimate() == RETRY_AFTER_CAP

    def test_warm_estimate_is_mean_times_waves(self, tmp_path):
        broker = self.make_broker(tmp_path, workers=2)
        broker._recent_seconds.extend([2.0, 4.0])
        broker._pending = 4  # two waves on two workers
        assert broker._retry_after_estimate() == pytest.approx(6.0)


class TestRetryPolicy:
    def test_full_jitter_stays_under_the_exponential_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        for attempt in range(1, 10):
            cap = min(2.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt) <= cap

    def test_retry_after_overrides_the_jittered_draw(self):
        policy = RetryPolicy(base_delay=0.1)
        for _ in range(20):
            delay = policy.delay(1, retry_after=3.0)
            assert 3.0 <= delay <= 3.1

    def test_unreachable_server_gives_up_after_max_attempts(self):
        client = ServeClient("127.0.0.1", 1,  # nothing listens on port 1
                             retry=RetryPolicy(max_attempts=3,
                                               base_delay=0.001,
                                               max_delay=0.002,
                                               max_deadline=30.0))
        with pytest.raises(ServeClientError, match="gave up after 3"):
            client.run(request())
        assert client.retries == 2  # attempts - 1 sleeps happened

    def test_deadline_beats_attempts_when_tighter(self):
        client = ServeClient("127.0.0.1", 1,
                             retry=RetryPolicy(max_attempts=50,
                                               base_delay=5.0,
                                               max_delay=5.0,
                                               max_deadline=0.05))
        with pytest.raises(DeadlineExceeded):
            client.run(request())

    def test_no_policy_preserves_raise_on_first_failure(self):
        client = ServeClient("127.0.0.1", 1)
        with pytest.raises(ConnectionFailed):
            client.run(request())
