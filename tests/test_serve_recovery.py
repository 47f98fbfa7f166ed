"""Crash recovery of the serve broker: journal, replay, disk-full.

The expensive proof — SIGKILL a live ``python -m repro serve`` mid-
batch, restart it on the same cache dir, and show the journaled jobs
are re-admitted with bit-identical results — runs in real subprocesses;
everything else (replay set difference, torn tails, disk-full
classification) is unit-level and fast.
"""

from __future__ import annotations

import errno
import json
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.errors import DiskFullError
from repro.exec import cache as cache_module
from repro.exec.cache import ResultCache
from repro.exec.journal import RunJournal
from repro.exec.keys import stable_hash
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.http import ThreadedServer
from repro.serve.protocol import JobStatus, SimulateRequest
from repro.serve.recovery import (
    ServeJournal,
    journal_path,
    replay_unfinished,
)

BUDGET = 0.02


def request(prefetcher: str = "stride",
            workload: str = "nw") -> SimulateRequest:
    return SimulateRequest(workload=workload, prefetcher=prefetcher,
                           budget_fraction=BUDGET, seed=0)


class TestServeJournalReplay:
    def test_replay_is_accepted_minus_finished(self, tmp_path):
        journal = ServeJournal(journal_path(tmp_path))
        journal.job_accepted("j1", "k1", request("stride"))
        journal.job_accepted("j2", "k2", request("cbws"))
        journal.job_finished("j1", "k1", "done")
        journal.close()
        pending = replay_unfinished(journal.path)
        assert [p.prefetcher for p in pending] == ["cbws"]

    def test_missing_journal_means_clean_shutdown(self, tmp_path):
        assert replay_unfinished(tmp_path / "nope.journal.jsonl") == []

    def test_torn_tail_trusts_intact_prefix(self, tmp_path):
        journal = ServeJournal(journal_path(tmp_path))
        journal.job_accepted("j1", "k1", request("stride"))
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b"deadbeef {\"kind\": \"job-accepted\", torn")
        pending = replay_unfinished(journal.path)
        assert [p.prefetcher for p in pending] == ["stride"]

    def test_unparseable_request_is_skipped_not_fatal(self, tmp_path):
        path = journal_path(tmp_path)
        raw = RunJournal(path)
        raw.append("job-accepted", job_id="j1", key="k1",
                   request={"workload": "nw"})  # missing required fields
        raw.close()
        assert replay_unfinished(path) == []

    def test_journal_path_is_stable_across_releases(self, tmp_path):
        # Journals left by earlier releases live here; a restart must
        # find them to replay their unfinished jobs.
        assert journal_path(tmp_path) == (
            tmp_path / "serve" / "broker.journal.jsonl")


class TestDiskFullClassification:
    """A full disk or quota under the result store (SQLITE_FULL, or an
    I/O error that a probe write traces to ENOSPC/EDQUOT) or the journal
    (ENOSPC) fails fast with remediation; other errors pass through
    unclassified."""

    KEY = "ab" + "0" * 62

    def _result(self):
        from repro.sim.results import SimResult

        return SimResult(workload="nw", prefetcher="stride")

    @staticmethod
    def _fail_inserts(monkeypatch):
        """Every INSERT on a store connection raises SQLite's I/O error."""
        real_connect = sqlite3.connect

        class FailingInserts:
            def __init__(self, connection):
                self._connection = connection

            def execute(self, sql, *args):
                if sql.startswith("INSERT"):
                    raise sqlite3.OperationalError("disk I/O error")
                return self._connection.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._connection, name)

        monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs:
                            FailingInserts(real_connect(*args, **kwargs)))

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EDQUOT])
    def test_cache_put_raises_disk_full(self, tmp_path, monkeypatch, code):
        # SQLite reports an exhausted quota as a plain I/O error; the
        # store's probe write, failing with the same errno, names it.
        def failing_open(_path, _mode):
            raise OSError(code, os.strerror(code))

        self._fail_inserts(monkeypatch)
        monkeypatch.setattr(cache_module, "open", failing_open,
                            raising=False)
        cache = ResultCache(tmp_path / "results")
        with pytest.raises(DiskFullError) as caught:
            cache.put(self.KEY, self._result())
        assert "repro cache gc" in str(caught.value)
        assert caught.value.__cause__.errno == code
        assert not cache.contains(self.KEY)
        cache.close()

    def test_io_error_with_room_passes_through(self, tmp_path, monkeypatch):
        # An I/O error while the disk has room is not a full disk: the
        # probe write succeeds, leaves no file, and the error propagates.
        self._fail_inserts(monkeypatch)
        cache = ResultCache(tmp_path / "results")
        with pytest.raises(sqlite3.OperationalError) as caught:
            cache.put(self.KEY, self._result())
        assert not isinstance(caught.value, DiskFullError)
        assert list((tmp_path / "results").glob(".space-probe-*")) == []
        cache.close()

    def test_full_store_raises_disk_full(self, tmp_path, monkeypatch):
        # SQLite reports SQLITE_FULL when the database may not grow, as
        # on a full disk: cap it at three pages, room for a few rows.
        real_connect = sqlite3.connect

        def capped(*args, **kwargs):
            connection = real_connect(*args, **kwargs)
            connection.execute("PRAGMA max_page_count = 3")
            return connection

        monkeypatch.setattr(sqlite3, "connect", capped)
        cache = ResultCache(tmp_path / "results")
        first = "00" + "0" * 62
        with pytest.raises(DiskFullError) as caught:
            for index in range(100):
                cache.put(f"{index:02x}" + "0" * 62, self._result())
        assert "repro cache gc" in str(caught.value)
        # A full store is not a damaged one: what it holds stays readable.
        assert cache.contains(first)
        assert list((tmp_path / "results").glob("*.corrupt-*")) == []
        cache.close()

    def test_journal_append_raises_disk_full(self):
        # /dev/full fails every write with ENOSPC, as a full disk does;
        # the append sees it when it flushes the record.
        journal = RunJournal("/dev/full")
        with pytest.raises(DiskFullError) as caught:
            journal.append("task-done", task_id="t1")
        assert "repro cache gc" in str(caught.value)

    def test_locked_store_passes_through_unclassified(self, tmp_path,
                                                      monkeypatch):
        # Another process holding the write lock is neither a full disk
        # nor a damaged file: the put raises after the busy timeout, and
        # the store stays where it is.
        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_S", 0.05)
        cache = ResultCache(tmp_path / "results")
        assert len(cache) == 0
        holder = sqlite3.connect(cache.path, isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(sqlite3.OperationalError) as caught:
                cache.put(self.KEY, self._result())
            assert not isinstance(caught.value, DiskFullError)
            assert "locked" in str(caught.value)
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert list((tmp_path / "results").glob("*.corrupt-*")) == []
        cache.put(self.KEY, self._result())
        assert cache.contains(self.KEY)
        cache.close()


class TestInProcessRecovery:
    def test_broker_readmits_journaled_jobs_on_start(self, tmp_path):
        # Forge a crash: a journal with one accepted-but-unfinished job.
        req = request("no-prefetch")
        key = req.node().key
        journal = ServeJournal(journal_path(tmp_path))
        journal.job_accepted("j-lost", key, req)
        journal.close()

        with ThreadedServer(workers=1, cache_dir=tmp_path,
                            batch_window=0.01) as server:
            client = ServeClient(port=server.port)
            client.wait_until_ready()
            metrics = client.metrics_text()
            assert "repro_serve_jobs_recovered_total 1" in metrics
            # The recovered job runs to completion: its result reaches
            # the shared cache without any client resubmitting it.
            cache = ResultCache(Path(tmp_path) / "results")
            deadline = time.monotonic() + 120
            while cache.get(key) is None:
                assert time.monotonic() < deadline, \
                    "recovered job never produced a cached result"
                time.sleep(0.05)

    def test_clean_drain_discards_journal(self, tmp_path):
        with ThreadedServer(workers=1, cache_dir=tmp_path,
                            batch_window=0.01) as server:
            client = ServeClient(port=server.port)
            client.wait_until_ready()
            view = client.run(request("stride"))
            assert view.status is JobStatus.DONE
            assert journal_path(tmp_path).exists()
        assert not journal_path(tmp_path).exists()


def _spawn_serve(cache_dir: Path, extra_env: dict | None = None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0", "--jobs", "1", "--batch-window", "0.01",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    line = process.stdout.readline()
    assert "listening on http://" in line, line
    port = int(line.rsplit(":", 1)[1].split()[0].rstrip("/)"))
    return process, port


class TestSigkillRecoverySubprocess:
    """The satellite drill: accept N jobs, SIGKILL, restart, compare."""

    REQUESTS = [request("no-prefetch"), request("stride"),
                request("cbws")]

    def test_sigkill_midbatch_then_restart_readmits_bit_identical(
            self, tmp_path):
        cache_dir = tmp_path / "cache"

        process, port = _spawn_serve(cache_dir)
        try:
            client = ServeClient("127.0.0.1", port)
            client.wait_until_ready()
            for req in self.REQUESTS:
                view = client.submit(req)
                assert view.status in (JobStatus.QUEUED, JobStatus.RUNNING,
                                       JobStatus.DONE)
        finally:
            # SIGKILL mid-batch: no drain, no journal cleanup.
            process.kill()
            process.wait(timeout=30)

        journal = journal_path(cache_dir)
        assert journal.exists(), "SIGKILL must leave the journal behind"
        pending = replay_unfinished(journal)
        assert len(pending) >= 1, "kill landed after every job finished"

        # Restart on the same cache dir: journaled jobs are re-admitted.
        process, port = _spawn_serve(cache_dir)
        try:
            client = ServeClient(
                "127.0.0.1", port,
                retry=RetryPolicy(max_attempts=6, base_delay=0.05,
                                  max_delay=0.5, max_deadline=120.0))
            client.wait_until_ready()
            recovered = {
                name: value for name, value in (
                    line.split() for line in
                    client.metrics_text().splitlines()
                    if line.startswith("repro_serve_jobs_recovered_total"))
            }
            assert float(recovered[
                "repro_serve_jobs_recovered_total"]) >= 1
            digests = {}
            for req in self.REQUESTS:
                view = client.run(req, timeout=120.0)
                assert view.status is JobStatus.DONE
                digests[view.key] = stable_hash(dict(view.result))
            process.send_signal(15)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        # Bit-identity: a clean run from an empty cache agrees cell
        # for cell with the crash-recovered results.
        with ThreadedServer(workers=1, cache_dir=tmp_path / "clean",
                            batch_window=0.01) as server:
            clean_client = ServeClient(port=server.port)
            clean_client.wait_until_ready()
            for req in self.REQUESTS:
                view = clean_client.run(req, timeout=120.0)
                assert view.status is JobStatus.DONE
                assert digests[view.key] == stable_hash(dict(view.result))
