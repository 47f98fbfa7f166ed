"""Journaled, resumable campaign execution.

One campaign run lives under ``<cache_dir>/campaigns/<campaign_id>/``
and is driven by the same CRC-framed write-ahead journal as grid runs
(:mod:`repro.exec.journal`): the intent of every wave is committed
(``wave-planned``) before any cell executes, every cell outcome is
appended behind it (``task-done`` / ``task-quarantined``, written by
:func:`~repro.exec.scheduler.execute_grid` itself), and the terminal
``run-finished`` record closes the run.

**Resume semantics.**  ``run_campaign(..., resume=True)`` replays the
journal, checks the spec fingerprint (resuming a different spec into an
existing campaign fails loudly), and then simply re-executes every wave:
cells whose results already sit in the content-addressed cache replay as
cache hits without scheduling any work, so a resumed campaign recomputes
*zero* already-journaled cells.  Refinement decisions are pure functions
of spec + deterministic simulation results, so the resumed run plans the
exact waves the uninterrupted run would have — which is what makes the
final ``campaign.json`` bit-identical either way.  As a belt-and-braces
check, a wave whose journaled cell list disagrees with the re-planned
one (code drift between runs) raises instead of silently mixing results.

**Executors.**  The default grid executor runs a wave's
:class:`~repro.exec.plan.SimNode` list as one
:class:`~repro.exec.plan.GridPlan` through one
:func:`~repro.exec.scheduler.execute_grid` call (worker pool, retries,
quarantine, circuit breaker all apply), whatever mix of trace
identities and machine configs the wave holds.  The serve executor
instead drives a running ``repro serve`` endpoint through the blocking
client — campaigns are the serve tier's first real heavy-traffic
workload — and honours 429 backpressure by sleeping the server's own
``Retry-After``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.campaign.planner import (
    CampaignPlan,
    CellSample,
    plan_campaign,
    plan_wave,
)
from repro.campaign.refine import RefineInterval, refine_wave
from repro.campaign.spec import CampaignSpec, spec_fingerprint
from repro.common.errors import CampaignError
from repro.exec.cache import ResultCache
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    new_run_id,
    read_records,
)
from repro.exec.plan import GridPlan, SimNode
from repro.exec.scheduler import ExecOptions, execute_grid
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.results import SimResult

#: Subdirectory of the cache dir holding one directory per campaign.
CAMPAIGNS_DIRNAME = "campaigns"

#: Progress callback: (wave, done, total) per finished cell.
CampaignProgress = Callable[[int, int, int], None]


@dataclass
class CampaignOutcome:
    """Everything one campaign run produced.

    ``results`` maps content keys to simulation results; ``samples``
    (all waves, duplicates included) locate those keys in the swept
    space.  Execution provenance (wall time, cache hits, executed cell
    counts) lives in ``execution`` and is *excluded* from the
    deterministic report — it differs between an interrupted-and-resumed
    run and an uninterrupted one.
    """

    campaign_id: str
    directory: Path
    spec: CampaignSpec
    fingerprint: str
    waves: list[CampaignPlan] = field(default_factory=list)
    samples: list[CellSample] = field(default_factory=list)
    results: dict[str, SimResult] = field(default_factory=dict)
    quarantined_keys: set[str] = field(default_factory=set)
    intervals: list[RefineInterval] = field(default_factory=list)
    status: str = "complete"
    execution: dict[str, Any] = field(default_factory=dict)

    @property
    def cells_total(self) -> int:
        return sum(plan.unique for plan in self.waves)


@dataclass
class CampaignReplayState:
    """What the campaign journal records about a prior run."""

    campaign_id: str | None = None
    fingerprint: str | None = None
    spec_document: dict[str, Any] | None = None
    #: Journaled cell-key lists, by wave index.
    wave_keys: dict[int, list[str]] = field(default_factory=dict)
    completed_keys: set[str] = field(default_factory=set)
    quarantined: int = 0
    status: str | None = None
    records: int = 0
    torn_lines: int = 0
    resumes: int = 0


def campaign_dir(cache_dir: str | Path, campaign_id: str) -> Path:
    return Path(cache_dir) / CAMPAIGNS_DIRNAME / campaign_id


def replay_campaign(path: str | Path) -> CampaignReplayState:
    """Reconstruct campaign state from its journal (torn-tail tolerant)."""
    state = CampaignReplayState()
    records, state.torn_lines = read_records(path)
    for record in records:
        state.records += 1
        kind = record.get("kind")
        if kind == "campaign-started":
            schema = record.get("schema", 0)
            if schema > JOURNAL_SCHEMA_VERSION:
                raise CampaignError(
                    f"campaign journal {path} uses schema {schema}, newer "
                    f"than this build ({JOURNAL_SCHEMA_VERSION})"
                )
            state.campaign_id = record.get("campaign_id")
            state.fingerprint = record.get("fingerprint")
            state.spec_document = record.get("spec")
            state.status = None
        elif kind == "campaign-resumed":
            state.resumes += 1
            state.status = None
        elif kind == "wave-planned":
            state.wave_keys[int(record["wave"])] = list(record["keys"])
        elif kind == "task-done":
            if record.get("key"):
                state.completed_keys.add(record["key"])
        elif kind == "task-quarantined":
            state.quarantined += 1
        elif kind == "run-finished":
            state.status = record.get("status")
    return state


def list_campaigns(cache_dir: str | Path) -> list[dict[str, Any]]:
    """One status row per campaign under the cache dir, newest first."""
    root = Path(cache_dir) / CAMPAIGNS_DIRNAME
    rows: list[dict[str, Any]] = []
    if not root.is_dir():
        return rows
    for entry in sorted(root.iterdir()):
        journal_path = entry / "journal.jsonl"
        if not journal_path.is_file():
            continue
        try:
            state = replay_campaign(journal_path)
        except CampaignError:
            continue
        if state.records == 0:
            continue
        planned = {key for keys in state.wave_keys.values() for key in keys}
        rows.append({
            "campaign_id": state.campaign_id or entry.name,
            "status": state.status or "interrupted",
            "waves": len(state.wave_keys),
            "cells_planned": len(planned),
            "cells_done": len(state.completed_keys & planned),
            "quarantined": state.quarantined,
            "resumes": state.resumes,
            "torn_lines": state.torn_lines,
        })
    rows.reverse()  # run ids sort by timestamp, so newest last -> first
    return rows


def run_campaign(
    spec: CampaignSpec,
    cache_dir: str | Path,
    *,
    campaign_id: str | None = None,
    resume: bool = False,
    jobs: int | None = 1,
    executor: str = "grid",
    serve_host: str = "127.0.0.1",
    serve_port: int = 8321,
    base: SimConfig = REDUCED_CONFIG,
    options: ExecOptions | None = None,
    progress: CampaignProgress | None = None,
) -> CampaignOutcome:
    """Run (or resume) one campaign to completion.

    Args:
        spec: the validated sweep spec.
        cache_dir: root for the result cache and the campaign directory.
        campaign_id: required with ``resume``; auto-generated otherwise.
        resume: re-attach to an existing journal instead of starting
            fresh (fingerprints must match).
        jobs: worker processes for the grid executor.
        executor: ``"grid"`` (in-process/pool) or ``"serve"`` (drive a
            running ``repro serve`` endpoint).
        options: grid execution policy; ``jobs`` overrides its job count.
    """
    if executor not in ("grid", "serve"):
        raise CampaignError(
            f"unknown executor {executor!r}; use 'grid' or 'serve'"
        )
    cache_dir = Path(cache_dir)
    fingerprint = spec_fingerprint(spec)
    started = time.perf_counter()

    if resume:
        if campaign_id is None:
            raise CampaignError("--resume needs the campaign id")
        directory = campaign_dir(cache_dir, campaign_id)
        journal_path = directory / "journal.jsonl"
        if not journal_path.is_file():
            known = ", ".join(
                row["campaign_id"] for row in list_campaigns(cache_dir)
            ) or "none"
            raise CampaignError(
                f"no campaign {campaign_id!r} under {cache_dir} "
                f"(known: {known})"
            )
        prior = replay_campaign(journal_path)
        if prior.fingerprint != fingerprint:
            raise CampaignError(
                f"campaign {campaign_id} was started from a different "
                f"spec (journal fingerprint {prior.fingerprint!r}, this "
                f"spec {fingerprint!r}); refusing to mix results"
            )
    else:
        campaign_id = campaign_id or new_run_id()
        directory = campaign_dir(cache_dir, campaign_id)
        if (directory / "journal.jsonl").exists():
            raise CampaignError(
                f"campaign {campaign_id!r} already exists under "
                f"{cache_dir}; use resume or pick another id"
            )
        prior = CampaignReplayState()

    cache = ResultCache(cache_dir / "results")
    outcome = CampaignOutcome(
        campaign_id=campaign_id,
        directory=directory,
        spec=spec,
        fingerprint=fingerprint,
    )
    journal = RunJournal(directory / "journal.jsonl")
    try:
        if resume:
            journal.append("campaign-resumed", campaign_id=campaign_id)
        else:
            journal.append(
                "campaign-started",
                schema=JOURNAL_SCHEMA_VERSION,
                campaign_id=campaign_id,
                fingerprint=fingerprint,
                spec=spec.to_dict(),
            )
        _run_waves(spec, outcome, cache, journal, prior,
                   jobs=jobs, executor=executor, serve_host=serve_host,
                   serve_port=serve_port, base=base, options=options,
                   progress=progress)
        outcome.status = ("degraded" if outcome.quarantined_keys
                          else "complete")
        journal.run_finished(
            outcome.status,
            cells=outcome.cells_total,
            quarantined=len(outcome.quarantined_keys),
        )
    finally:
        journal.close()
        cache.close()
    outcome.execution["wall_seconds"] = time.perf_counter() - started
    outcome.execution["resumed"] = resume
    return outcome


def _run_waves(
    spec: CampaignSpec,
    outcome: CampaignOutcome,
    cache: ResultCache,
    journal: RunJournal,
    prior: CampaignReplayState,
    *,
    jobs: int | None,
    executor: str,
    serve_host: str,
    serve_port: int,
    base: SimConfig,
    options: ExecOptions | None,
    progress: CampaignProgress | None,
) -> None:
    known_keys: set[str] = set()
    refine_cells_left = spec.refine.max_cells
    wave = 0
    with obs.phase("campaign.plan"):
        plan = plan_campaign(spec, cache=cache, base=base)

    while True:
        keys = plan.keys
        journaled = prior.wave_keys.get(wave)
        if journaled is not None:
            if journaled != keys:
                raise CampaignError(
                    f"wave {wave} replans differently than the journal "
                    f"records ({len(journaled)} vs {len(keys)} cell(s) or "
                    "different keys) — the code or base config changed "
                    "since this campaign started; start a fresh campaign"
                )
        else:
            journal.append("wave-planned", wave=wave, keys=keys,
                           cells=[cell.to_dict() for cell in plan.cells],
                           stats=plan.stats())
        outcome.waves.append(plan)
        outcome.samples.extend(plan.samples)
        known_keys.update(keys)

        with obs.phase("campaign.execute"):
            if executor == "grid":
                _execute_wave_grid(plan, outcome, cache, journal,
                                   jobs=jobs, options=options,
                                   wave=wave, progress=progress)
            else:
                _execute_wave_serve(plan, outcome, cache, journal,
                                    serve_host, serve_port,
                                    wave=wave, progress=progress)

        if not spec.refine.enabled or wave + 1 > spec.refine.max_waves:
            break
        workload_count = len(spec.workloads) * len(spec.prefetchers)
        max_points = (refine_cells_left // max(1, workload_count)
                      if refine_cells_left > 0 else 0)
        with obs.phase("campaign.refine"):
            points, intervals = refine_wave(
                spec, outcome.samples, outcome.results, max_points)
        outcome.intervals.extend(intervals)
        if not points:
            break
        wave += 1
        with obs.phase("campaign.plan"):
            plan = plan_wave(spec, points, wave, known_keys,
                             cache=cache, base=base)
        refine_cells_left -= plan.unique
        if not plan.cells:
            break


def _execute_wave_grid(
    plan: CampaignPlan,
    outcome: CampaignOutcome,
    cache: ResultCache,
    journal: RunJournal,
    *,
    jobs: int | None,
    options: ExecOptions | None,
    wave: int,
    progress: CampaignProgress | None,
) -> None:
    """Run one wave's nodes through the grid engine in one call."""
    done = 0

    def grid_progress(node: SimNode, result: SimResult) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(wave, done, plan.unique)

    results, telemetry = execute_grid(
        GridPlan(plan.nodes),
        options=replace(options or ExecOptions(), jobs=jobs),
        cache=cache,
        journal=journal,
        progress=grid_progress,
    )
    for node in plan.nodes:
        if node in results:
            outcome.results[node.key] = results[node]
        else:
            outcome.quarantined_keys.add(node.key)
    execution = outcome.execution
    for counter in ("cache_hits", "sims_run", "retries"):
        execution[counter] = (execution.get(counter, 0)
                              + getattr(telemetry, counter))


def _execute_wave_serve(
    plan: CampaignPlan,
    outcome: CampaignOutcome,
    cache: ResultCache,
    journal: RunJournal,
    host: str,
    port: int,
    *,
    wave: int,
    progress: CampaignProgress | None,
) -> None:
    """Run one wave against a live ``repro serve`` endpoint.

    Cells already present in the local result cache are replayed without
    touching the server; the rest go through the client's
    :class:`~repro.serve.client.RetryPolicy` — exponential backoff with
    full jitter on connection failures, 429, 503, and the 404s of a
    restarted broker, so a campaign survives the server restarting
    mid-wave.  Results land in the local cache too, so a later resume —
    or a grid run of the same spec — replays them for free.  Like a grid
    cell, each result carries its own cell's prefetcher spelling, also
    when the cache entry or the served job came from another spelling
    of the same geometry.
    """
    from repro.serve.client import RetryPolicy, ServeClient, ServeClientError

    client = ServeClient(host=host, port=port,
                         retry=RetryPolicy(max_attempts=8,
                                           max_deadline=600.0))
    execution = outcome.execution
    done = 0
    for cell, key in zip(plan.cells, plan.keys):
        workload, prefetcher = cell.request.workload, cell.request.prefetcher
        name = f"sim:{workload}:{prefetcher}"
        cached = cache.get(key)
        if cached is not None:
            cached.prefetcher = prefetcher
            outcome.results[key] = cached
            execution["cache_hits"] = execution.get("cache_hits", 0) + 1
            journal.task_done(name, "sim", cell=(workload, prefetcher),
                              key=key, source="cache")
            done += 1
            if progress is not None:
                progress(wave, done, plan.unique)
            continue
        try:
            view = client.run(cell.request)
        except ServeClientError as error:
            raise CampaignError(
                f"server at {host}:{port} failed cell {cell.coords!r} "
                f"after retries: {error}"
            ) from error
        if view.result is not None:
            result = SimResult.from_dict(view.result)
            result.prefetcher = prefetcher
            outcome.results[key] = result
            counter = "cache_hits" if view.cache_hit else "sims_run"
            execution[counter] = execution.get(counter, 0) + 1
            cache.put(key, result)
            journal.task_done(name, "sim", cell=(workload, prefetcher),
                              key=key, source="serve")
        else:
            outcome.quarantined_keys.add(key)
            journal.task_quarantined(
                name, "sim", view.error or "server reported failure", 1,
                "serve", cell=(workload, prefetcher),
            )
        done += 1
        if progress is not None:
            progress(wave, done, plan.unique)
    if client.retries:
        execution["retries"] = execution.get("retries", 0) + client.retries
