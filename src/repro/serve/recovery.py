"""Crash-recoverable job state for the serve broker.

A broker crash (OOM kill, SIGKILL of a hung process, injected
``serve.job-finished:exit`` chaos) used to drop every accepted-but-
unfinished job on the floor: the client would poll a job id the
restarted process had never heard of, forever.  This module journals the
broker's admission decisions through the same CRC-framed,
torn-tail-tolerant machinery as grid runs (:mod:`repro.exec.journal`),
so a restarted broker *re-admits* the journaled-but-unfinished jobs
instead of forgetting them.  Records are flushed, not fsync'd: a
broker process death loses none.  A job whose ``job-accepted`` an OS
crash lost answers 404 after the restart, and a client with a
``RetryPolicy`` resubmits it (:mod:`repro.serve.client`).

Record kinds::

    job-accepted      {job_id, key, request}   written at admission
    job-finished      {job_id, key, status}    written at the terminal
                                               transition, *after* the
                                               result landed in the
                                               result cache
    broker-restarted  {recovered}              appended by a recovering
                                               broker before it
                                               re-admits anything

Replay is a set difference: every ``job-accepted`` key without a
matching ``job-finished`` is unfinished work.  Because requests are
content-addressed (the journal stores the full
:class:`~repro.serve.protocol.SimulateRequest` body), re-admission is
idempotent — a re-admitted job whose result already reached the result
cache before the crash replays as a pure cache hit, bit-identical to
the uninterrupted run.

A clean drain finishes every accepted job, so the journal is deleted on
shutdown; only a crash leaves one behind for the next start to find.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any

from repro.common.errors import JournalError, ReproError
from repro.exec.journal import RunJournal, read_records
from repro.serve.protocol import SimulateRequest

logger = logging.getLogger("repro.serve")

#: Version of the serve-journal record layout.
SERVE_JOURNAL_SCHEMA_VERSION = 1

#: Subdirectory of the cache dir holding the broker's job journal.
SERVE_JOURNAL_DIRNAME = "serve"
#: File name of the job journal; journals written by older releases
#: live at the same path, so a restart still replays them.
SERVE_JOURNAL_FILENAME = "broker.journal.jsonl"


def journal_path(cache_dir: str | Path) -> Path:
    """Where the broker's job journal lives under a cache dir."""
    return Path(cache_dir) / SERVE_JOURNAL_DIRNAME / SERVE_JOURNAL_FILENAME


class ServeJournal:
    """Write-ahead journal of one broker's job admissions."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._journal = RunJournal(self.path)

    def job_accepted(self, job_id: str, key: str,
                     request: SimulateRequest) -> None:
        """Record one admission *before* the job is queued."""
        self._journal.append(
            "job-accepted",
            schema=SERVE_JOURNAL_SCHEMA_VERSION,
            job_id=job_id,
            key=key,
            request=request.to_dict(),
        )

    def job_finished(self, job_id: str, key: str, status: str) -> None:
        """Record one terminal transition (done or failed)."""
        self._journal.append("job-finished", job_id=job_id, key=key,
                             status=status)

    def broker_restarted(self, recovered: int) -> None:
        """Mark a recovery pass (visible in post-mortem journal reads)."""
        self._journal.append("broker-restarted", recovered=recovered)

    def close(self) -> None:
        self._journal.close()

    def discard_clean(self) -> None:
        """Close and delete the journal after a clean drain.

        A drained broker has finished every accepted job, so the journal
        carries no recoverable state — leaving it around would only make
        the next start replay an empty set difference.
        """
        self.close()
        self.path.unlink(missing_ok=True)


def replay_unfinished(path: str | Path) -> list[SimulateRequest]:
    """The journaled-but-unfinished requests of one crashed broker.

    Tolerates a torn tail exactly like grid-run replay (records are
    trusted up to the first line failing its CRC or JSON check).  A
    missing journal means a clean previous shutdown: no recovery.
    Records whose embedded request no longer parses (schema drift
    across an upgrade) are skipped with a warning rather than wedging
    the restart.
    """
    path = Path(path)
    try:
        records, torn = read_records(path)
    except JournalError:
        return []
    if torn:
        logger.warning("serve journal %s has %d torn line(s); "
                       "trusting the intact prefix", path, torn)
    accepted: dict[str, dict[str, Any]] = {}
    finished: set[str] = set()
    for record in records:
        kind = record.get("kind")
        if kind == "job-accepted":
            key = record.get("key")
            body = record.get("request")
            if isinstance(key, str) and isinstance(body, dict):
                accepted[key] = body
        elif kind == "job-finished":
            key = record.get("key")
            if isinstance(key, str):
                finished.add(key)
    unfinished: list[SimulateRequest] = []
    for key, body in accepted.items():
        if key in finished:
            continue
        try:
            unfinished.append(SimulateRequest.from_dict(body))
        except ReproError as error:
            logger.warning("skipping unreplayable journaled job %s: %s",
                           key[:12], error)
    return unfinished
