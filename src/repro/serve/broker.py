"""The request broker: admission, single-flight, batching, drain.

One :class:`Broker` owns the path from a validated
:class:`~repro.serve.protocol.SimulateRequest` to a terminal job:

1. **Admission.**  ``submit`` is synchronous on the event loop.  A
   bounded count of non-terminal jobs (``max_pending``) provides
   backpressure: overflow raises :class:`AdmissionFull`, which the HTTP
   layer turns into ``429`` with a ``Retry-After`` estimated from
   recent job wall times.  During drain, :class:`Draining` maps to
   ``503``.
2. **Single-flight.**  A job is the :class:`~repro.exec.plan.SimNode`
   of its request (:meth:`SimulateRequest.node`), identified by the
   node's ``key``.  A request whose key is already in flight — the same
   simulation, however its overrides or prefetcher parameters are
   spelled — attaches to the leader job (via
   :class:`repro.exec.SingleFlight`) instead of queueing duplicate work.
   An identical request gets the leader job itself; a differently
   spelled one gets its own *follower* job (own id, own spelling, its
   result labelled with its own prefetcher name) that shares the
   leader's execution and ends when the leader does.
3. **Micro-batching.**  A background task drains the admission queue,
   gathers up to ``batch_max`` jobs inside a ``batch_window`` seconds
   window, and executes their nodes as *one*
   :class:`~repro.exec.plan.GridPlan` through one
   :func:`~repro.exec.scheduler.execute_grid` call, whatever their trace
   parameters and machine configs — sharing trace builds across the
   batch exactly like a CLI grid run.  Each job ends the moment its own
   cell lands (``execute_grid`` hands each delivered node and result to
   its progress callback), and a quarantined job gets the reason its
   node's key carries, so the same (workload, prefetcher) at two seeds
   in one batch never collide.  With ``workers > 1``
   the broker owns a persistent :class:`~repro.exec.pool.WorkerPool`
   that every batch submits into, so worker startup is paid once per
   server, not once per request.
4. **Caching.**  ``execute_grid`` probes the same content-addressed
   :class:`~repro.exec.cache.ResultCache` the CLI uses; a repeated
   request is a pure cache read and never touches the pool.
5. **Crash recovery.**  With a cache dir, every admission and terminal
   transition is journaled through :mod:`repro.serve.recovery`; a
   restarted broker re-admits journaled-but-unfinished jobs before it
   batches anything, and a clean drain deletes the journal.
6. **Drain.**  ``begin_drain`` stops admission; :meth:`drain` waits for
   every in-flight job, shuts the pool down, and flushes a telemetry
   snapshot next to the cache — SIGTERM maps onto exactly this
   sequence.

Results are bit-identical to ``repro run`` for the same cell: the
broker feeds the identical plan/config/seed into the identical engine.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import obs
from repro.common.errors import ReproError
from repro.exec import ExecOptions, GridPlan, ResultCache, SingleFlight
from repro.exec import faults
from repro.exec.plan import SimNode
from repro.exec.pool import WorkerPool
from repro.exec.scheduler import execute_grid
from repro.serve.protocol import JobStatus, JobView, SimulateRequest
from repro.serve.recovery import ServeJournal, journal_path, replay_unfinished
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.results import SimResult


class AdmissionFull(ReproError):
    """The bounded admission queue is full; retry after a while."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Draining(ReproError):
    """The server is draining and no longer admits new work."""


class UnknownJob(ReproError):
    """No job with the requested id exists (or it was evicted)."""


@dataclass
class ServeJob:
    """Broker-internal state of one admitted simulation job."""

    job_id: str
    request: SimulateRequest
    node: SimNode
    status: JobStatus = JobStatus.QUEUED
    cache_hit: bool | None = None
    result: SimResult | None = None
    error: str | None = None
    submitted_monotonic: float = field(default_factory=time.monotonic)
    wall_seconds: float | None = None
    #: Every progress event emitted so far (replayed to new SSE readers).
    events: list[dict[str, Any]] = field(default_factory=list)
    #: Live SSE readers; each gets every new event.
    subscribers: list[asyncio.Queue] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: Differently spelled jobs sharing this job's execution.
    followers: list["ServeJob"] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.node.key

    def view(self, deduplicated: bool = False) -> JobView:
        """The externally visible snapshot of this job."""
        return JobView(
            job_id=self.job_id,
            status=self.status,
            workload=self.request.workload,
            prefetcher=self.request.prefetcher,
            key=self.key,
            deduplicated=deduplicated,
            cache_hit=self.cache_hit,
            wall_seconds=self.wall_seconds,
            result=(self.result.to_dict()
                    if self.result is not None else None),
            error=self.error,
        )


#: Terminal jobs kept around for polling before FIFO eviction.
JOB_HISTORY_LIMIT = 1024

#: Retry-After bounds: never tell a client to hot-spin (< floor) or to
#: stay away for minutes on a transient spike (> cap).
RETRY_AFTER_FLOOR = 1.0
RETRY_AFTER_CAP = 120.0

#: Assumed per-job wall time for the Retry-After estimate before any
#: real sample exists (a reduced-config cell is a couple of seconds).
COLD_START_CELL_SECONDS = 2.0


class Broker:
    """Admission control + single-flight + batched execution."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        base_config: SimConfig = REDUCED_CONFIG,
        max_pending: int = 64,
        batch_window: float = 0.02,
        batch_max: int = 16,
        task_timeout: float | None = None,
        max_retries: int = 2,
        recover: bool = True,
    ) -> None:
        self.workers = max(1, workers)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.base_config = base_config
        self.max_pending = max_pending
        self.batch_window = batch_window
        self.batch_max = max(1, batch_max)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.recover = recover

        self._cache = (ResultCache(self.cache_dir / "results")
                       if self.cache_dir is not None else None)
        #: Write-ahead job journal (crash recovery); None without a
        #: cache dir — no durable state means nothing to recover into.
        self._journal = (ServeJournal(journal_path(self.cache_dir))
                         if self.cache_dir is not None else None)
        self._pool = (WorkerPool(self.workers)
                      if self.workers > 1 else None)
        self._singleflight: SingleFlight[ServeJob] = SingleFlight()
        self._jobs: "dict[str, ServeJob]" = {}
        self._history: deque[str] = deque()
        self._queue: asyncio.Queue[ServeJob] = asyncio.Queue()
        self._pending = 0
        self._draining = False
        self._batch_task: asyncio.Task | None = None
        #: Recent job wall times, for the Retry-After estimate.
        self._recent_seconds: deque[float] = deque(maxlen=32)

        self.counters: dict[str, int] = {
            "serve.requests": 0,
            "serve.deduplicated": 0,
            "serve.rejected": 0,
            "serve.completed": 0,
            "serve.failed": 0,
            "serve.cache_hits": 0,
            "serve.batches": 0,
            "serve.cells_executed": 0,
            "serve.jobs_recovered": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the batching loop (call from the server's event loop).

        Before the first batch runs, any journaled-but-unfinished jobs
        left behind by a crashed predecessor are re-admitted — the
        restarted broker picks the work back up instead of dropping it.
        """
        if self._batch_task is None:
            self._recover_jobs()
            self._batch_task = asyncio.create_task(self._batch_loop(),
                                                   name="serve-batcher")

    def _recover_jobs(self) -> None:
        """Re-admit journaled-but-unfinished jobs from a crashed run.

        Re-admission goes through the normal :meth:`submit` path, so the
        recovered jobs are journaled, single-flighted, and batched like
        fresh ones; a job whose result reached the shared result cache
        before the crash replays as a pure cache hit.  Clients that were
        polling the dead process's job ids get 404 and resubmit — the
        content-addressed key attaches them to the recovered leader.
        """
        if self._journal is None or not self.recover:
            return
        pending = replay_unfinished(self._journal.path)
        if not pending:
            return
        self._journal.broker_restarted(recovered=len(pending))
        for request in pending:
            try:
                self.submit(request)
            except ReproError as error:
                # A request that no longer admits (schema drift, bad
                # name after an upgrade) must not wedge the restart.
                import logging

                logging.getLogger("repro.serve").warning(
                    "could not re-admit journaled job: %s", error)
            else:
                self.counters["serve.jobs_recovered"] += 1

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new work; in-flight jobs keep running."""
        self._draining = True

    async def drain(self) -> None:
        """Finish every admitted job, then stop the batcher and pool.

        The queue join waits for whole batches, not only for their jobs:
        a job ends as its cell lands, before its batch's bookkeeping.
        """
        self.begin_drain()
        await self._queue.join()
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        if self._pool is not None:
            await asyncio.to_thread(self._pool.shutdown)
        if self._journal is not None:
            # Every accepted job is finished after the queue join, so the
            # journal holds no recoverable state — drop it.
            self._journal.discard_clean()
        self.flush_telemetry()

    def flush_telemetry(self) -> None:
        """Persist counters + probe snapshot next to the cache, if any."""
        if self.cache_dir is None:
            return
        import json

        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.cache_dir / "serve-stats.json"
        document = {
            "counters": dict(self.counters),
            "singleflight": {"hits": self._singleflight.hits,
                             "leaders": self._singleflight.leaders},
            "obs": obs.snapshot(),
        }
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    # -- admission ----------------------------------------------------------

    def submit(self, request: SimulateRequest) -> tuple[ServeJob, bool]:
        """Admit one request; returns ``(job, deduplicated)``.

        Raises:
            Draining: the server no longer admits work.
            AdmissionFull: backpressure — retry after ``.retry_after``.
            ReproError: invalid workload/prefetcher/config (HTTP 400).
        """
        if self._draining:
            raise Draining("server is draining; not admitting new work")
        faults.check("serve.admit")
        self.counters["serve.requests"] += 1

        # Resolve early so bad names and bad configs fail at admission.
        from repro.harness.registry import make_prefetcher
        from repro.workloads import get_workload

        get_workload(request.workload)
        make_prefetcher(request.prefetcher)
        node = request.node(self.base_config)
        key = node.key

        existing = self._singleflight.peek(key)
        if existing is not None and not existing.status.terminal:
            self.counters["serve.deduplicated"] += 1
            return self._follow(existing, request, node), True

        if self._pending >= self.max_pending:
            self.counters["serve.rejected"] += 1
            raise AdmissionFull(
                f"admission queue is full ({self._pending} job(s) pending, "
                f"limit {self.max_pending})",
                retry_after=self._retry_after_estimate(),
            )

        job = ServeJob(
            job_id=uuid.uuid4().hex[:12],
            request=request,
            node=node,
        )
        # Re-lease under the registry lock; the earlier peek was only a
        # fast path and another leader cannot have appeared on this
        # single-threaded loop, but lease() keeps the accounting honest.
        leased, is_leader = self._singleflight.lease(key, lambda: job)
        if not is_leader:
            self.counters["serve.deduplicated"] += 1
            return self._follow(leased, request, node), True
        if self._journal is not None:
            self._journal.job_accepted(job.job_id, key, request)
        self._jobs[job.job_id] = job
        self._remember_history(job.job_id)
        self._pending += 1
        self._queue.put_nowait(job)
        self._emit(job, {"event": "queued", "job_id": job.job_id,
                         "key": job.key})
        self._publish_gauges()
        return job, False

    def _follow(self, leader: ServeJob, request: SimulateRequest,
                node: SimNode) -> ServeJob:
        """The job a request deduplicated onto ``leader`` sees: the
        leader itself when spelled identically, else a new follower."""
        if request == leader.request:
            return leader
        follower = ServeJob(
            job_id=uuid.uuid4().hex[:12],
            request=request,
            node=node,
            status=leader.status,
            cache_hit=leader.cache_hit,
            events=[dict(event) for event in leader.events],
        )
        leader.followers.append(follower)
        self._jobs[follower.job_id] = follower
        self._remember_history(follower.job_id)
        return follower

    def job(self, job_id: str) -> ServeJob:
        """Look one job up by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(f"no job {job_id!r}") from None

    def _remember_history(self, job_id: str) -> None:
        self._history.append(job_id)
        while len(self._history) > JOB_HISTORY_LIMIT:
            stale_id = self._history.popleft()
            stale = self._jobs.get(stale_id)
            if stale is not None and stale.status.terminal:
                del self._jobs[stale_id]
            elif stale is not None:
                # Never evict a live job; push it back and stop.
                self._history.appendleft(stale_id)
                break

    def _retry_after_estimate(self) -> float:
        """Seconds a client should wait before retrying a 429.

        With wall-time samples, the estimate is mean job time times the
        queue depth in worker-waves.  On a cold start (queue filled
        before the first job ever finished) there is no sample basis, so
        a conservative per-cell default stands in — still scaled by the
        backlog, never the meaningless flat guess an empty deque used to
        produce.  Either way the result is clamped to
        [:data:`RETRY_AFTER_FLOOR`, :data:`RETRY_AFTER_CAP`] so clients
        neither hot-spin nor give up for minutes on a transient spike.
        """
        if self._recent_seconds:
            per_job = sum(self._recent_seconds) / len(self._recent_seconds)
        else:
            per_job = COLD_START_CELL_SECONDS
        waves = max(1.0, self._pending / max(1, self.workers))
        estimate = round(per_job * waves, 1)
        return min(RETRY_AFTER_CAP, max(RETRY_AFTER_FLOOR, estimate))

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, dict[str, float]]:
        """Counters + gauges for the ``/metrics`` endpoint."""
        counters = dict(self.counters)
        counters["serve.singleflight_hits"] = self._singleflight.hits
        counters["serve.singleflight_leaders"] = self._singleflight.leaders
        gauges = {
            "serve.pending_jobs": float(self._pending),
            "serve.queue_depth": float(self._queue.qsize()),
            "serve.draining": 1.0 if self._draining else 0.0,
            "serve.max_pending": float(self.max_pending),
            "serve.workers": float(self.workers),
        }
        return {"counters": counters, "gauges": gauges}

    def _publish_gauges(self) -> None:
        if obs.enabled():
            obs.set_gauge("serve.pending_jobs", self._pending)
            obs.set_gauge("serve.queue_depth", self._queue.qsize())

    # -- events -------------------------------------------------------------

    def _emit(self, job: ServeJob, event: dict[str, Any]) -> None:
        """Record ``event`` on ``job`` and its followers, and push it to
        their SSE readers."""
        for target in (job, *job.followers):
            payload = dict(event)
            payload.setdefault("status", target.status.value)
            target.events.append(payload)
            for queue in list(target.subscribers):
                queue.put_nowait(payload)

    def subscribe(self, job: ServeJob) -> asyncio.Queue:
        """Attach one SSE reader; past events must be replayed by the
        caller from ``job.events`` before reading the queue."""
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return queue

    def unsubscribe(self, job: ServeJob, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    # -- batching + execution ----------------------------------------------

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            batch = [job]
            deadline = loop.time() + self.batch_window
            while len(batch) < self.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            try:
                await self._execute_batch(batch)
            except Exception as error:  # defensive: never kill the loop
                for failed in batch:
                    if not failed.status.terminal:
                        self._finish(failed, error=str(error))
            for _ in batch:
                self._queue.task_done()
            self._publish_gauges()

    async def _execute_batch(self, batch: list[ServeJob]) -> None:
        loop = asyncio.get_running_loop()
        for job in batch:
            cache_hit = (self._cache.contains(job.key)
                         if self._cache is not None else None)
            for target in (job, *job.followers):
                target.status = JobStatus.RUNNING
                target.cache_hit = cache_hit
            self._emit(job, {"event": "running",
                             "batch_size": len(batch)})

        options = ExecOptions(
            jobs=self.workers,
            timeout=self.task_timeout,
            max_retries=self.max_retries,
        )
        by_node = {job.node: job for job in batch}

        def delivered(node: SimNode, result: SimResult) -> None:
            # Called from the executor thread; hop back onto the loop,
            # so each job ends as soon as its own cell lands.
            job = by_node[node]
            loop.call_soon_threadsafe(
                self._emit, job, {"event": "cell-finished"})
            loop.call_soon_threadsafe(self._finish, job, result)

        self.counters["serve.batches"] += 1
        _, telemetry = await asyncio.to_thread(
            execute_grid,
            GridPlan(job.node for job in batch),
            options=options,
            cache=self._cache,
            progress=delivered,
            pool=self._pool,
        )

        self.counters["serve.cells_executed"] += telemetry.sims_run
        self.counters["serve.cache_hits"] += telemetry.cache_hits
        reasons = {entry.get("key"): entry["reason"]
                   for entry in telemetry.quarantined}
        for job in batch:
            if not job.status.terminal:
                self._finish(job, error=reasons.get(
                    job.key, "cell did not produce a result"))

    def _finish(self, job: ServeJob, result: SimResult | None = None,
                error: str | None = None) -> None:
        # Chaos site: the canonical kill-broker fault fires here, after
        # the result reached the result cache but *before* the terminal
        # transition is journaled — the crashed job replays as
        # unfinished and recovers as a pure cache hit.
        faults.check("serve.job-finished")
        _settle(job, result, error)
        self._recent_seconds.append(job.wall_seconds)
        if result is not None:
            self.counters["serve.completed"] += 1
        else:
            self.counters["serve.failed"] += 1
        for follower in job.followers:
            _settle(follower, None if result is None else replace(
                result, prefetcher=follower.node.prefetcher,
                classes=dict(result.classes)), error)
        if self._journal is not None:
            self._journal.job_finished(job.job_id, job.key,
                                       job.status.value)
        self._singleflight.release(job.key)
        self._pending = max(0, self._pending - 1)
        self._emit(job, {"event": "terminal",
                         "wall_seconds": job.wall_seconds,
                         "error": job.error})
        for target in (job, *job.followers):
            target.done.set()
        if obs.enabled():
            obs.observe("serve.job_seconds", job.wall_seconds)
        self._publish_gauges()


def _settle(job: ServeJob, result: SimResult | None,
            error: str | None) -> None:
    """Make ``job`` terminal with ``result``, or failed with ``error``."""
    job.wall_seconds = time.monotonic() - job.submitted_monotonic
    if result is not None:
        job.result = result
        job.status = JobStatus.DONE
    else:
        job.error = error or "unknown failure"
        job.status = JobStatus.FAILED
