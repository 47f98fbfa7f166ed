"""The ``serve-mixed`` workload: closed-loop traffic against ``repro serve``.

An in-process :class:`~repro.serve.http.ThreadedServer` with one worker
(cells run on the server's own executor thread) is driven by two client
threads, one per kind of caller the server has.  Each waits for its
reply before sending its next item:

* the ``campaign`` client stands for the campaign executor.  That
  executor answers cached cells from its own result cache and sends the
  server only the cells it is missing, one at a time, so every item of
  this client is ``fresh``: a cell no earlier item asked for, which
  builds a new trace, simulates and writes the result cache;
* the ``submit`` client stands for users of ``repro submit`` and is
  shaped like the repository's own load generator
  (``repro.serve.loadgen``): one in ``PAIR_EVERY`` of its items
  (loadgen's default ``duplicate_ratio``) is a ``pair``, a fresh cell
  submitted twice back to back before waiting, so the second submission
  attaches to the in-flight first (single-flight).  The rest are
  ``repeat`` items: a cell some earlier item has already finished,
  answered from the result cache.

Every request uses budget fraction 1.0, the default of ``repro submit``,
of :class:`~repro.serve.protocol.SimulateRequest` and of a campaign
cell, so a round trip pays for the trace build and simulation a real
one pays for.

Fresh cells come in rounds of 30, one cell of every Figure 14 workload
in registry order, with the run's seed and the round in the request
seed.  Six cells of a round go to the submit client's pairs and 24 to
the campaign client.  Which prefetcher a workload's cell uses, and
whether it is a pair, depends on the round only, so a round is the same
work, in the same order, in every run; the seed changes the workload
data.  (A seeded order made peak RSS follow which eight traces happened
to share the server's trace LRU.)  Every fresh cell is a new (workload,
seed) pair, so it builds its trace.  Cells of one round share a request
seed, so the broker may batch the two clients' cells together.

Every reply for a cell must equal the first reply for it, and after the
timed region a seeded sample of served cells is recomputed in-process
and compared by digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from common import (
    SETUP_REPEATS,
    Outcome,
    fresh_dir,
    import_seconds,
    peak_rss_mib,
    percentile,
)
from layers import SERVE_COUNTERS, layer_metrics
from tracer import Tracer, assert_pristine

from repro.harness.registry import PAPER_PREFETCHER_ORDER
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.obs.prometheus import metric_name, parse_prometheus
from repro.serve.client import ServeClient
from repro.serve.http import ThreadedServer
from repro.serve.protocol import JobStatus, SimulateRequest
from repro.workloads import ALL_WORKLOADS

#: Access-budget fraction of every request: the default of ``repro
#: submit``, ``SimulateRequest`` and a campaign cell.
BUDGET = 1.0
#: The closed-loop clients, one thread each.
CLIENTS = ("campaign", "submit")
#: One in this many of the submit client's items is a back-to-back
#: pair: the default ``duplicate_ratio`` (0.25) of ``repro loadgen``.
PAIR_EVERY = 4
#: Fresh cells per round: one of every workload (``wall_s`` is the
#: median round).
ROUND_CELLS = len(ALL_WORKLOADS)
#: One in this many of a round's cells goes to the submit client's
#: pairs, the rest to the campaign client: about the ratio of the two
#: clients' fresh cells when each waits for its replies.
PAIR_WORKLOADS_EVERY = 5
#: Replies every run collects at least, so ten lie beyond p90.
MIN_REPLIES = 110
#: Seconds past ``--seconds`` the clients may run to reach MIN_REPLIES.
MAX_EXTRA_SECONDS = 60
#: Served cells recomputed in-process after the timed region.
RECOMPUTE_SAMPLE = 4


@dataclass(frozen=True)
class Item:
    kind: str
    #: Round of the fresh cell this item asks for (repeats: the
    #: repeated cell's).
    round: int
    workload: str
    prefetcher: str
    seed: int

    @property
    def cell(self) -> tuple[str, str, int]:
        return (self.workload, self.prefetcher, self.seed)

    def request(self) -> SimulateRequest:
        return SimulateRequest(workload=self.workload,
                               prefetcher=self.prefetcher,
                               budget_fraction=BUDGET, seed=self.seed)


def _pair_workload(workload: str, round_: int) -> bool:
    """Whether a round's cell of this workload is sent as a pair.

    Like the prefetcher, this depends on the round only, so the pairs,
    whose cells count twice among the replies, are the same cells in
    every run.
    """
    position = ALL_WORKLOADS.index(workload) + round_
    return position % PAIR_WORKLOADS_EVERY == 0


def _round_prefetcher(workload: str, round_: int) -> str:
    """The prefetcher of a workload's fresh cell in a round.

    It does not depend on the seed, so round r holds the same work in
    every run; seven rounds cover the Figure 14 grid.
    """
    position = ALL_WORKLOADS.index(workload) + round_
    return PAPER_PREFETCHER_ORDER[position % len(PAPER_PREFETCHER_ORDER)]


class RequestPlan:
    """The items both clients draw from.

    The seed sets the request seeds and the places of the submit
    client's pairs.  Which finished cell a repeat picks follows the
    order replies arrive in.
    """

    def __init__(self, seed: int) -> None:
        self._submit_rng = random.Random(seed + 1)
        self._submit_taken = 0
        self._pair_slot = 0
        self._seed_base = 1_000 + 100 * (seed % 1_000_000)
        #: Per round, the workloads of the campaign client and of pairs.
        self._rounds: list[dict[str, list[str]]] = []
        self._taken = {"fresh": 0, "pair": 0}
        self._finished: list[Item] = []
        self._finished_cells: set[tuple] = set()
        self._lock = threading.Lock()

    @property
    def campaign_cells(self) -> int:
        """Fresh cells handed to the campaign client so far."""
        return self._taken["fresh"]

    def _fresh(self, kind: str) -> Item:
        index = self._taken[kind]
        self._taken[kind] += 1
        per_round = ROUND_CELLS // PAIR_WORKLOADS_EVERY
        if kind == "fresh":
            per_round = ROUND_CELLS - per_round
        round_, slot = divmod(index, per_round)
        while len(self._rounds) <= round_:
            number = len(self._rounds)
            self._rounds.append({
                "pair": [w for w in ALL_WORKLOADS
                         if _pair_workload(w, number)],
                "fresh": [w for w in ALL_WORKLOADS
                          if not _pair_workload(w, number)],
            })
        workload = self._rounds[round_][kind][slot]
        return Item(kind, round_, workload,
                    _round_prefetcher(workload, round_),
                    self._seed_base + round_)

    def take(self, client: str) -> Item:
        with self._lock:
            if client == "campaign":
                return self._fresh("fresh")
            # Exactly one pair per PAIR_EVERY items, at a seeded place.
            rng = self._submit_rng
            slot = self._submit_taken % PAIR_EVERY
            if slot == 0:
                self._pair_slot = rng.randrange(PAIR_EVERY)
            self._submit_taken += 1
            if slot == self._pair_slot or not self._finished:
                return self._fresh("pair")
            earlier = self._finished[rng.randrange(len(self._finished))]
            return Item("repeat", earlier.round, earlier.workload,
                        earlier.prefetcher, earlier.seed)

    def finished(self, item: Item) -> None:
        """Make a served cell available to repeats."""
        with self._lock:
            if item.cell not in self._finished_cells:
                self._finished_cells.add(item.cell)
                self._finished.append(item)


@dataclass
class Reply:
    item: Item
    submitted: float
    finished: float
    result: dict | None
    error: str | None


def _result_digest(result: dict) -> str:
    payload = json.dumps(result, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _await_reply(client: ServeClient, view: Any) -> Any:
    """The terminal job view: follow its event stream, then fetch it."""
    if view.status.terminal:
        return view
    for _ in client.stream_events(view.job_id):
        pass
    return client.job(view.job_id)


class Session:
    """One server plus its closed-loop clients."""

    def __init__(self, server: ThreadedServer,
                 tracer: Tracer | None = None) -> None:
        self.server = server
        self.replies: list[Reply] = []
        self._lock = threading.Lock()
        self._await: Callable = (tracer.span("serve.wait", _await_reply)
                                 if tracer is not None else _await_reply)

    def client(self) -> ServeClient:
        return ServeClient(port=self.server.port, timeout=120.0)

    def _record(self, reply: Reply) -> None:
        with self._lock:
            self.replies.append(reply)

    def _send(self, client: ServeClient, item: Item) -> bool:
        """Send one item and wait for its replies; True if all were ok."""
        request = item.request()
        submits = 2 if item.kind == "pair" else 1
        pending = []
        ok = True
        for _ in range(submits):
            submitted = time.perf_counter()
            try:
                pending.append((submitted, client.submit(request)))
            except Exception as error:  # counted, never fatal to the run
                ok = False
                self._record(Reply(item, submitted, time.perf_counter(),
                                   None, f"submit: {error!r}"))
        for submitted, view in pending:
            try:
                view = self._await(client, view)
            except Exception as error:
                ok = False
                self._record(Reply(item, submitted, time.perf_counter(),
                                   None, f"wait: {error!r}"))
                continue
            finished = time.perf_counter()
            if view.status is JobStatus.DONE and view.result is not None:
                self._record(Reply(item, submitted, finished,
                                   dict(view.result), None))
            else:
                ok = False
                self._record(Reply(item, submitted, finished, None,
                                   f"job {view.status.value}: {view.error}"))
        return ok

    def drive(self, plan: RequestPlan, keep_going: Callable[[], bool]) -> None:
        """Run the clients until ``keep_going`` says stop."""
        errors: list[BaseException] = []

        def loop(name: str) -> None:
            client = self.client()
            try:
                while keep_going():
                    item = plan.take(name)
                    if self._send(client, item):
                        plan.finished(item)
            except BaseException as error:  # surfaced after join
                errors.append(error)
                raise

        threads = [threading.Thread(target=loop, args=(name,),
                                    name=f"client-{name}")
                   for name in CLIENTS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150)
        if any(thread.is_alive() for thread in threads) or errors:
            raise RuntimeError(f"serve clients failed: {errors!r}")

    def counters(self) -> dict[str, float]:
        return parse_prometheus(self.client().metrics_text())


def _boot(setups: list[float]) -> ThreadedServer:
    """Boot one server; appends its set-up time (import + boot) to setups."""
    started = time.perf_counter()
    import_seconds()
    server = ThreadedServer(workers=1, cache_dir=fresh_dir("serve")).start()
    ServeClient(port=server.port).wait_until_ready(timeout=30)
    setups.append(time.perf_counter() - started)
    return server


def _check_replies(outcome: Outcome, replies: list[Reply],
                   seed: int) -> None:
    """Every reply ok and equal to its cell's first; recompute a sample."""
    outcome.attempted += len(replies)
    first: dict[tuple, dict] = {}
    for reply in sorted(replies, key=lambda r: r.finished):
        if reply.error is not None:
            outcome.fail(f"{reply.item.cell}: {reply.error}")
            continue
        earlier = first.setdefault(reply.item.cell, reply.result)
        if reply.result != earlier:
            outcome.fail(f"{reply.item.cell}: reply differs from the "
                         f"first reply for the cell")
    cells = sorted(first)
    sample = random.Random(seed).sample(cells,
                                        min(RECOMPUTE_SAMPLE, len(cells)))
    clear_trace_cache()
    for workload, prefetcher, cell_seed in sample:
        outcome.attempted += 1
        runner = GridRunner(budget_fraction=BUDGET, seed=cell_seed, jobs=1)
        expected = runner.run_one(workload, prefetcher).to_dict()
        if _result_digest(expected) != _result_digest(first[
                (workload, prefetcher, cell_seed)]):
            outcome.fail(f"{(workload, prefetcher, cell_seed)}: served "
                         f"result differs from the in-process recompute")


def _deltas(before: dict, after: dict) -> dict[str, float]:
    names = [*SERVE_COUNTERS, "sim.events"]
    return {name: after.get(f"{metric_name(name)}_total", 0.0)
            - before.get(f"{metric_name(name)}_total", 0.0)
            for name in names}


def _rounds(replies: list[Reply]) -> list[float]:
    """Span of every complete round: first submit to last reply of its
    ROUND_CELLS fresh cells (the repeats served meanwhile slow it)."""
    rounds: dict[int, list[Reply]] = {}
    for reply in replies:
        if reply.item.kind != "repeat":
            rounds.setdefault(reply.item.round, []).append(reply)
    return [max(r.finished for r in members)
            - min(r.submitted for r in members)
            for members in rounds.values()
            if len({r.item.cell for r in members}) == ROUND_CELLS]


def run_serve(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    setups: list[float] = []
    for repeat in range(SETUP_REPEATS):
        # One server at a time: each one enables the process-wide probes
        # on boot and disables them again when it stops.
        server = _boot(setups)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    outcome.metrics["setup_s"] = statistics.median(setups)

    if traced:
        _traced_sessions(outcome, server, seed)
        return outcome

    assert_pristine()
    session = Session(server)
    plan = RequestPlan(seed)
    try:
        before = session.counters()
        started = time.perf_counter()
        deadline = started + seconds
        hard_stop = deadline + MAX_EXTRA_SECONDS

        def keep_going() -> bool:
            now = time.perf_counter()
            if now < deadline:
                return True
            return len(session.replies) < MIN_REPLIES and now < hard_stop

        session.drive(plan, keep_going)
        wall = max(r.finished for r in session.replies) - started
        deltas = _deltas(before, session.counters())
    finally:
        server.stop()
    assert_pristine()
    _check_replies(outcome, session.replies, seed)

    rtts = [r.finished - r.submitted for r in session.replies]
    rounds = _rounds(session.replies)
    if not rounds:
        outcome.fail(f"no complete round of {ROUND_CELLS} fresh cells")
    outcome.metrics.update({
        "wall_s": statistics.median(rounds) if rounds else wall,
        "sim_events_per_s": deltas["sim.events"] / wall,
        "cells_per_s": len(session.replies) / wall,
        "rtt_p50_s": percentile(rtts, 50),
        "rtt_p90_s": percentile(rtts, 90),
        "peak_rss_mb": peak_rss_mib(),
    })
    outcome.notes.append(
        f"{len(rtts)} replies, rounds of {ROUND_CELLS} fresh cells: "
        f"{' '.join(f'{r:.2f}' for r in rounds)} s; server: {deltas}")
    for kind in ("fresh", "pair", "repeat"):
        times = [r.finished - r.submitted for r in session.replies
                 if r.item.kind == kind]
        if times:
            outcome.notes.append(
                f"  {kind:6} {len(times):4} replies, rtt p50 "
                f"{percentile(times, 50):.3f} s, p90 "
                f"{percentile(times, 90):.3f} s")
    return outcome


def _fixed_session(server: ThreadedServer, seed: int,
                   tracer: Tracer | None) -> tuple[Session, float, dict]:
    """Serve the plan until the campaign client has taken its cells of
    the first round, then stop the server.

    Returns (session, wall seconds, /metrics deltas).
    """
    session = Session(server, tracer)
    plan = RequestPlan(seed)

    try:
        before = session.counters()
        started = time.perf_counter()
        first_round = ROUND_CELLS - ROUND_CELLS // PAIR_WORKLOADS_EVERY
        session.drive(plan, lambda: plan.campaign_cells < first_round)
        wall = time.perf_counter() - started
        deltas = _deltas(before, session.counters())
    finally:
        server.stop()
    return session, wall, deltas


def _traced_sessions(outcome: Outcome, server: ThreadedServer,
                     seed: int) -> None:
    """One round of the plan untraced, then traced on a fresh server."""
    untraced, untraced_wall, _ = _fixed_session(server, seed, None)
    _check_replies(outcome, untraced.replies, seed)
    # The recompute left traces of this plan in the in-process trace
    # LRU; the traced side must build its own, as the untraced side did.
    clear_trace_cache()
    tracer = Tracer()
    server = _boot([])
    tracer.install()
    try:
        session, wall, deltas = _fixed_session(server, seed, tracer)
    finally:
        tracer.restore()
    metrics, notes, failures = layer_metrics(tracer, untraced_wall, wall)
    metrics.update({name: deltas[name] for name in SERVE_COUNTERS})
    outcome.metrics = metrics
    outcome.spans = tracer.spans
    outcome.notes.extend(notes)
    for failure in failures:
        outcome.fail(failure)
    _check_replies(outcome, session.replies, seed)
