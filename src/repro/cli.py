"""Command-line interface.

Everything the examples and benches do, driveable from a shell::

    python -m repro list workloads
    python -m repro list prefetchers
    python -m repro run --workload stencil-default --prefetcher cbws+sms
    python -m repro figure 14 --budget-fraction 0.3 --jobs 4
    python -m repro table 3
    python -m repro trace --workload nw --out nw.trace
    python -m repro inspect nw.trace
    python -m repro ingest app.champsimtrace.xz --name app --report
    python -m repro trace info ext:app
    python -m repro check --budget 30s --seed 7
    python -m repro exec-stats
    python -m repro serve --port 8321 --jobs 4
    python -m repro submit --workload nw --prefetcher cbws
    python -m repro loadgen --quick

Grid commands run through :mod:`repro.exec`: ``--jobs N`` simulates N
cells concurrently on a worker pool (``--jobs 0``, the default, uses
every core; ``--jobs 1`` runs in-process), and finished cells land in a
content-addressed result cache under ``--cache-dir`` (default
``.repro-cache``, or ``$REPRO_CACHE_DIR``) so re-running a figure with
unchanged inputs is a pure cache read.  ``--no-result-cache`` disables
the replay; ``exec-stats`` reports on the last recorded run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro import obs
from repro.common.errors import ReproError
from repro.harness.registry import PAPER_PREFETCHER_ORDER
from repro.harness.runner import GridRunner
from repro.sim.results import DemandClass
from repro.trace.io import read_trace, write_trace
from repro.workloads import ALL_WORKLOADS, REGISTRY, build_trace, get_workload


def _default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=_default_cache_dir(), metavar="DIR",
        help="result cache directory (default .repro-cache, "
             "or $REPRO_CACHE_DIR)",
    )


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="enable repro.obs probes and print the phase/counter "
             "profile after the command",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    _add_profile_argument(parser)
    parser.add_argument(
        "--budget-fraction", type=float, default=1.0,
        help="fraction of each workload's default access budget (default 1.0)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload footprint/trip-count scale factor (default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload data seed (default 0)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for grid execution "
             "(0 = all cores, 1 = in-process; default 0)",
    )
    _add_cache_arguments(parser)
    parser.add_argument(
        "--no-result-cache", action="store_true",
        help="do not reuse or store cached simulation results",
    )
    parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="identifier for the write-ahead run journal "
             "(default: a fresh timestamped id)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume a journaled prior run: completed cells replay from "
             "the result cache, only the remainder executes",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail instead of completing with DEGRADED holes when any "
             "cell is quarantined",
    )


def _runner(args: argparse.Namespace) -> GridRunner:
    return GridRunner(
        scale=args.scale,
        budget_fraction=args.budget_fraction,
        seed=args.seed,
        cache_dir=args.cache_dir,
        jobs=None if args.jobs == 0 else args.jobs,
        result_cache=not args.no_result_cache,
        run_id=getattr(args, "run_id", None),
        resume=getattr(args, "resume", None),
        strict=getattr(args, "strict", False),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "workloads":
        print(f"{'name':<26} {'suite':<15} {'group':<5} description")
        print("-" * 88)
        for name in ALL_WORKLOADS:
            spec = REGISTRY[name]
            print(f"{spec.name:<26} {spec.suite:<15} {spec.group:<5} "
                  f"{spec.description}")
        for record in _ingested_records():
            print(f"{record.workload:<26} {'external':<15} {'ext':<5} "
                  f"ingested {record.format} trace "
                  f"({record.accesses} accesses, "
                  f"{record.coverage:.0%} marker coverage)")
    else:
        for name in PAPER_PREFETCHER_ORDER:
            print(name)
    return 0


#: Exit code of a run that completed, but with DEGRADED holes.
EXIT_DEGRADED = 3


def _ingested_records():
    """Rows of the ingest store, or [] (with a warning) when unreadable."""
    from repro.common.errors import IngestRegistryError
    from repro.ingest.store import IngestStore

    try:
        return IngestStore().records()
    except IngestRegistryError as error:
        print(f"warning: {error}", file=sys.stderr)
        return []


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.registry import make_prefetcher

    runner = _runner(args)
    prefetchers = (
        PAPER_PREFETCHER_ORDER if args.prefetcher == "all"
        else [args.prefetcher]
    )
    workloads = ALL_WORKLOADS if args.workload == "all" else [args.workload]
    # Validate names before any work: a typo must fail loudly up front,
    # not get quarantined into a DEGRADED hole by the lenient scheduler.
    for workload in workloads:
        get_workload(workload)
    for name in prefetchers:
        make_prefetcher(name)

    grid = runner.run_grid(workloads, prefetchers)
    header = (f"{'workload':<26} {'prefetcher':<12} {'IPC':>6} {'MPKI':>8} "
              f"{'timely':>7} {'sw':>6} {'wrong':>6}")
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for name in prefetchers:
            result = grid.get(workload, name)
            if result.degraded:
                print(f"{workload:<26} {name:<12} DEGRADED")
                continue
            print(
                f"{workload:<26} {name:<12} {result.ipc:6.3f} "
                f"{result.mpki:8.2f} "
                f"{result.class_fraction(DemandClass.TIMELY):6.1%} "
                f"{result.class_fraction(DemandClass.SHORTER_WAITING):6.1%} "
                f"{result.wrong_fraction:6.1%}"
            )
    if runner.last_run_id is not None:
        print(f"\nrun journal: {runner.last_run_id} "
              f"(resume with --resume {runner.last_run_id})")
    if args.json is not None:
        from repro.harness.export import write_json

        write_json(
            grid, args.json,
            budget_fraction=args.budget_fraction,
            scale=args.scale,
            seed=args.seed,
        )
        print(f"\nwrote {args.json}")
    if grid.degraded_cells:
        print(f"warning: {len(grid.degraded_cells)} DEGRADED cell(s); "
              "see `repro exec-stats` for the quarantine report",
              file=sys.stderr)
        return EXIT_DEGRADED
    return 0


_FIGURES = {
    "1": "figure1",
    "5": "figure5",
    "12": "figure12",
    "13": "figure13",
    "14": "figure14",
    "15": "figure15",
}

_TABLES = {"1": "table1", "3": "table3"}


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import experiments

    function = getattr(experiments, _FIGURES[args.number])
    result = function(_runner(args))
    print(result.render())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.harness import experiments

    if args.number == "3":
        print(experiments.table3().render())
    else:
        print(experiments.table1(_runner(args)).render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.action == "info":
        return _cmd_trace_info(args)
    if args.workload is None or args.out is None:
        print("error: repro trace requires --workload and --out "
              "(or use `repro trace info <name>`)", file=sys.stderr)
        return 2
    spec = get_workload(args.workload)
    trace = build_trace(
        spec,
        scale=args.scale,
        max_accesses=args.accesses,
        seed=args.seed,
    )
    write_trace(trace, args.out)
    stats = trace.stats()
    print(f"wrote {args.out}: {len(trace)} events, "
          f"{stats.memory_accesses} accesses, "
          f"{stats.blocks} block instances")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    """Dump the registry row of one stored (ingested) trace."""
    from repro.ingest.store import IngestStore

    if args.name is None:
        print("error: repro trace info requires a trace name "
              "(bare or ext:-prefixed)", file=sys.stderr)
        return 2
    store = IngestStore()
    record = store.get(args.name)
    print(f"workload:          {record.workload}")
    print(f"digest:            {record.digest}")
    print(f"file:              {store.root / record.file}")
    print(f"format:            {record.format}")
    print(f"source:            {record.source}")
    print(f"instructions:      {record.instructions}")
    print(f"events:            {record.events}")
    print(f"memory accesses:   {record.accesses}")
    print(f"marker coverage:   {record.coverage:.1%}")
    print(f"block instances:   {record.block_instances} "
          f"({record.block_ids} static blocks)")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Convert an external trace into a registered ``ext:`` workload."""
    from repro.ingest.formats import detect_format
    from repro.ingest.recover import RecoveryConfig
    from repro.ingest.store import IngestStore

    fmt = args.format or detect_format(args.file)
    config = RecoveryConfig(
        min_iterations=args.min_iterations,
        infer_backedges=(fmt == "csv"),
    )
    record, stats = IngestStore().ingest(
        args.file, name=args.name, fmt=fmt, config=config, force=args.force,
    )
    print(f"ingested {args.file} as {record.workload}")
    print(f"  digest:  {record.digest}")
    print(f"  format:  {record.format}; {record.instructions} instructions, "
          f"{record.accesses} accesses, {record.events} events")
    print(f"  markers: {record.coverage:.1%} coverage, "
          f"{record.block_instances} block instance(s), "
          f"{record.block_ids} static id(s)")
    if args.report:
        print()
        print(stats.render())
    print(f"\nrun it: repro run --workload {record.workload} "
          "--prefetcher all")
    return 0


def _cmd_exec_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.common.errors import ExecError
    from repro.exec.telemetry import load_stats
    from repro.harness.report import format_exec_stats

    path = Path(args.cache_dir) / "exec-stats.json"
    if not path.exists():
        raise ExecError(
            f"no recorded execution statistics at {path}; run a figure or "
            "grid first (statistics persist next to the cache)"
        )
    document = load_stats(path)
    print(format_exec_stats(document.get("summary", {})))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.exec.journal import RUNS_DIRNAME, list_runs
    from repro.harness.report import format_run_list

    def warn_skip(run_id: str, reason: str) -> None:
        print(f"warning: skipping run {run_id!r}: {reason}", file=sys.stderr)

    summaries = list_runs(Path(args.cache_dir) / RUNS_DIRNAME,
                          on_skip=warn_skip)
    if not summaries:
        print(f"no journaled runs under {args.cache_dir}")
        return 0
    print(format_run_list(summaries))
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte size: ``4096``, ``64K``, ``500M``, ``2G`` (binary)."""
    from repro.common.errors import ConfigError

    raw = text.strip().upper()
    scale = 1
    for suffix, factor in (("K", 1 << 10), ("M", 1 << 20),
                           ("G", 1 << 30), ("T", 1 << 40)):
        if raw.endswith(suffix):
            scale, raw = factor, raw[:-1]
            break
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"cannot parse size {text!r}; use forms like 4096, 64K, 500M, 2G"
        ) from None
    if value < 0:
        raise ConfigError(f"size must be non-negative, got {text!r}")
    return int(value * scale)


def _parse_age(text: str) -> float:
    """Parse an age: ``30``/``30s`` seconds, ``10m``, ``6h``, ``7d``."""
    from repro.common.errors import ConfigError

    raw = text.strip().lower()
    scale = 1.0
    for suffix, factor in (("s", 1.0), ("m", 60.0), ("h", 3600.0),
                           ("d", 86400.0), ("w", 604800.0)):
        if raw.endswith(suffix):
            scale, raw = factor, raw[:-1]
            break
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise ConfigError(
            f"cannot parse age {text!r}; use forms like 30, 10m, 6h, 7d"
        ) from None
    if seconds < 0:
        raise ConfigError(f"age must be non-negative, got {text!r}")
    return seconds


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from contextlib import closing
    from pathlib import Path

    from repro.exec.cache import ResultCache

    results_root = Path(args.cache_dir) / "results"
    if not results_root.is_dir():
        print(f"no result cache under {args.cache_dir}")
        return 0
    max_bytes = None if args.max_bytes is None else _parse_size(args.max_bytes)
    max_age = None if args.max_age is None else _parse_age(args.max_age)
    with closing(ResultCache(results_root)) as cache:
        stats = cache.gc(
            max_bytes=max_bytes,
            max_age_seconds=max_age,
            dry_run=args.dry_run,
        )
    verb = "would evict" if args.dry_run else "evicted"
    print(f"scanned {stats.scanned} entr(ies), {stats.bytes_total:,} bytes")
    print(f"{verb} {stats.evicted} ({stats.evicted_by_age} by age, "
          f"{stats.evicted_by_size} by size), "
          f"reclaiming {stats.bytes_reclaimed:,} bytes")
    print(f"kept {stats.kept} entr(ies), {stats.bytes_after:,} bytes")
    if stats.old_layout_files:
        verb = "would delete" if args.dry_run else "deleted"
        print(f"{verb} {stats.old_layout_files} old-layout result "
              f"file(s), {stats.old_layout_bytes:,} bytes")
    if max_bytes is None and max_age is None:
        print("note: no --max-bytes / --max-age bound given, so this was "
              "a census only")
    return 0


def _campaign_progress(stream=None):
    """Per-cell progress callback for campaign runs (tty-aware)."""
    stream = stream if stream is not None else sys.stderr
    interactive = getattr(stream, "isatty", lambda: False)()

    def progress(wave: int, done: int, total: int) -> None:
        if interactive:
            end = "\n" if done == total else "\r"
            print(f"  wave {wave}: {done}/{total} cell(s)",
                  end=end, file=stream, flush=True)
        elif done == total:
            print(f"  wave {wave}: {total} cell(s) done", file=stream)

    return progress


def _campaign_summary(outcome, artifacts: dict) -> None:
    flips = [interval for interval in outcome.intervals
             if interval.reason == "winner-flip"]
    print(f"campaign {outcome.campaign_id}: {outcome.status}")
    print(f"  spec:        {outcome.spec.name} "
          f"(fingerprint {outcome.fingerprint[:12]})")
    print(f"  waves:       {len(outcome.waves)}")
    print(f"  cells:       {outcome.cells_total} unique, "
          f"{len(outcome.quarantined_keys)} quarantined")
    print(f"  refinement:  {len(outcome.intervals)} interval(s), "
          f"{len(flips)} winner flip(s)")
    for interval in flips:
        context = ", ".join(f"{k}={v}" for k, v in interval.context)
        print(f"    flip on {interval.axis} in [{interval.lo}, "
              f"{interval.hi}] -> sampled {interval.midpoint}  "
              f"({interval.workload}; {context})")
    seconds = outcome.execution.get("wall_seconds")
    if seconds is not None:
        print(f"  wall time:   {seconds:.2f}s "
              f"({outcome.execution.get('sims_run', 0)} simulated, "
              f"{outcome.execution.get('cache_hits', 0)} cache hit(s))")
    for name in sorted(artifacts):
        print(f"  {name + ':':<12} {artifacts[name]}")


def _recover_campaign_spec(args: argparse.Namespace):
    """The spec for an existing campaign: --spec file, else the journal."""
    from repro.campaign.runner import campaign_dir, replay_campaign
    from repro.campaign.spec import load_spec, parse_spec
    from repro.common.errors import CampaignError

    if getattr(args, "spec", None) is not None:
        return load_spec(args.spec)
    journal = campaign_dir(args.cache_dir, args.campaign_id) / "journal.jsonl"
    if not journal.is_file():
        raise CampaignError(
            f"no campaign {args.campaign_id!r} under {args.cache_dir}; "
            "see `repro campaign status`"
        )
    state = replay_campaign(journal)
    if state.spec_document is None:
        raise CampaignError(
            f"campaign {args.campaign_id!r} has no journaled spec "
            "(torn journal head?); pass the original file via --spec"
        )
    return parse_spec(state.spec_document)


#: Exit code of a campaign that completed with quarantined holes.
EXIT_CAMPAIGN_DEGRADED = 3


def _run_and_report_campaign(spec, args: argparse.Namespace, *,
                             resume: bool,
                             campaign_id: str | None) -> int:
    from repro.campaign.report import write_report
    from repro.campaign.runner import run_campaign

    outcome = run_campaign(
        spec,
        args.cache_dir,
        campaign_id=campaign_id,
        resume=resume,
        jobs=None if args.jobs == 0 else args.jobs,
        executor=args.executor,
        serve_host=args.host,
        serve_port=args.port,
        progress=_campaign_progress(),
    )
    artifacts = write_report(outcome)
    _campaign_summary(outcome, artifacts)
    if outcome.status != "complete":
        print(f"warning: campaign finished {outcome.status}; resume with "
              f"`repro campaign resume {outcome.campaign_id}`",
              file=sys.stderr)
        return EXIT_CAMPAIGN_DEGRADED
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.spec import load_spec

    return _run_and_report_campaign(
        load_spec(args.spec), args,
        resume=False, campaign_id=args.id,
    )


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _run_and_report_campaign(
        _recover_campaign_spec(args), args,
        resume=True, campaign_id=args.campaign_id,
    )


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign.runner import list_campaigns

    rows = list_campaigns(args.cache_dir)
    if not rows:
        print(f"no campaigns under {args.cache_dir}")
        return 0
    header = (f"{'campaign':<28} {'status':<12} {'waves':>5} {'done':>11} "
              f"{'quar':>4} {'resumes':>7}")
    print(header)
    print("-" * len(header))
    for row in rows:
        done = f"{row['cells_done']}/{row['cells_planned']}"
        print(f"{row['campaign_id']:<28} {row['status']:<12} "
              f"{row['waves']:>5} {done:>11} {row['quarantined']:>4} "
              f"{row['resumes']:>7}")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    """Regenerate a finished campaign's report from journal + cache.

    This is a resume under the hood: every journaled cell replays from
    the content-addressed cache, so nothing simulates unless the cache
    was evicted from under the campaign.
    """
    return _run_and_report_campaign(
        _recover_campaign_spec(args), args,
        resume=True, campaign_id=args.campaign_id,
    )


def _cmd_campaign_bench(args: argparse.Namespace) -> int:
    from repro.campaign.bench import render_campaign_bench, run_campaign_bench
    from repro.harness.bench import write_bench

    document = run_campaign_bench(
        jobs=args.jobs,
        progress=(None if args.no_progress
                  else lambda phase: print(f"  campaign bench: {phase}",
                                           file=sys.stderr)),
    )
    write_bench(document, args.out)
    print(render_campaign_bench(document))
    print(f"\nwrote {args.out}")
    return 0 if document["status"] == "complete" else 1


def _cmd_verify_artifacts(args: argparse.Namespace) -> int:
    """Walk the cache directory and verify every artifact's integrity.

    Ingest-store trace files are checked against their embedded payload
    CRC, cached results against their schema + checksum envelope, and
    run journals for torn tails.  Exit 0 when everything verifies; exit
    1 and list the offenders otherwise (``--purge`` deletes corrupt
    trace files and result rows: a purged result is simulated again on
    the next run).
    """
    from contextlib import closing
    from pathlib import Path

    from repro.exec.cache import ResultCache
    from repro.exec.journal import RUNS_DIRNAME, list_runs
    from repro.trace.io import verify_trace_file

    root = Path(args.cache_dir)
    if not root.is_dir():
        print(f"no cache directory at {root}")
        return 0

    ok = 0
    corrupt: list[tuple[Path, str]] = []
    for path in sorted((root / "ingest").glob("*.trace")):
        reason = verify_trace_file(path)
        if reason is None:
            ok += 1
        else:
            corrupt.append((path, reason))

    results_root = root / "results"
    cache_bad: list[tuple[str, str]] = []
    if results_root.is_dir():
        with closing(ResultCache(results_root)) as cache:
            cache_ok, cache_bad = cache.verify(purge=args.purge)
        ok += cache_ok

    torn_runs = 0
    for summary in list_runs(root / RUNS_DIRNAME):
        if summary.torn_lines:
            torn_runs += 1
            print(f"journal {summary.run_id}: {summary.torn_lines} torn "
                  "line(s) discarded at replay (tolerated)")

    print(f"verified {ok} artifact(s): {len(corrupt) + len(cache_bad)} "
          f"corrupt, {torn_runs} journal(s) with torn tails")
    if not corrupt and not cache_bad:
        return 0
    for path, reason in corrupt + cache_bad:
        print(f"corrupt: {path}: {reason}", file=sys.stderr)
    if not args.purge:
        return 1
    for path, _ in corrupt:
        path.unlink(missing_ok=True)
    for path, _ in corrupt + cache_bad:
        print(f"purged:  {path}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.harness.bench import (
        check_bench,
        embed_baseline,
        load_bench,
        render_bench,
        run_bench,
        write_bench,
    )

    if args.check and args.baseline is None:
        print("error: --check requires --baseline", file=sys.stderr)
        return 2
    if (args.baseline is not None
            and Path(args.out).resolve() == Path(args.baseline).resolve()):
        print(f"error: --out {args.out} is the --baseline file; "
              "write the new document elsewhere", file=sys.stderr)
        return 2
    document = run_bench(
        quick=args.quick,
        progress=(None if args.no_progress
                  else lambda workload: print(f"  bench: {workload}",
                                              file=sys.stderr)),
        cache_phase=not args.no_cache_phase,
    )

    baseline = None
    if args.baseline is not None:
        baseline = load_bench(args.baseline)
        embed_baseline(document, baseline, path=args.baseline)

    write_bench(document, args.out)
    print(render_bench(document))
    print(f"\nwrote {args.out}")

    if args.check:
        problems = check_bench(document, baseline,
                               tolerance=args.tolerance)
        failures = [p for p in problems if not p.startswith("note:")]
        for problem in problems:
            print(f"bench check: {problem}", file=sys.stderr)
        if failures:
            return 1
        print(f"bench check: OK (tolerance {args.tolerance:.0%})")
    return 0


def _parse_budget(text: str) -> float:
    """Parse a wall-clock budget: ``30``/``30s`` seconds, ``2m`` minutes."""
    from repro.common.errors import ConfigError

    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("m"):
        scale, raw = 60.0, raw[:-1]
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise ConfigError(
            f"cannot parse budget {text!r}; use forms like 30, 45s, 2m"
        ) from None
    if seconds <= 0:
        raise ConfigError(f"budget must be positive, got {text!r}")
    return seconds


def _cmd_check(args: argparse.Namespace) -> int:
    """Differential verification: corpus replay, then coverage fuzzing."""
    import time
    from pathlib import Path

    from repro.check import diff, fuzz, invariants

    budget = _parse_budget(args.budget)
    requested = args.prefetcher or ["all"]
    if "all" in requested:
        names = list(diff.DIFF_PREFETCHERS)
    else:
        names = list(dict.fromkeys(requested))
    for name in names:
        if name not in diff.DIFF_PREFETCHERS:
            known = ", ".join(diff.DIFF_PREFETCHERS)
            print(f"error: no oracle for prefetcher {name!r}; known: {known}",
                  file=sys.stderr)
            return 2

    # Engine runs under `repro check` execute with invariants armed, so a
    # corpus replay also exercises the MSHR/queue/inclusion checks.
    invariants.enable()
    try:
        if args.inject is not None:
            result = fuzz.run_injection(
                args.inject, budget_seconds=budget, seed=args.seed)
            if not result.caught:
                print(f"injection {args.inject!r}: NOT caught within "
                      f"{budget:.0f}s — harness regression", file=sys.stderr)
                return 1
            print(f"injection {args.inject!r}: caught; shrunken "
                  f"counterexample has {result.counterexample_events} events")
            print(result.divergence)
            return 0

        started = time.monotonic()
        divergences: list[diff.Divergence] = []
        replayed = 0
        corpus_dir = Path(args.corpus)
        if corpus_dir.is_dir():
            for path in sorted(corpus_dir.glob("*.trace")):
                trace = read_trace(path)
                trace.validate()
                divergences.extend(diff.diff_all(trace, names=names))
                replayed += 1
        print(f"corpus: {replayed} trace(s) replayed, "
              f"{len(divergences)} divergence(s)")

        remaining = budget - (time.monotonic() - started)
        if remaining > 0 and not divergences:
            report = fuzz.run_fuzz(remaining, seed=args.seed, names=names)
            divergences.extend(report.divergences)
            print(f"fuzz: {report.iterations} iteration(s), corpus grew to "
                  f"{report.corpus_size}, {len(report.features)} feature(s), "
                  f"{len(report.divergences)} divergence(s) "
                  f"in {report.elapsed_seconds:.1f}s")
        for divergence in divergences:
            print(divergence, file=sys.stderr)
        return 1 if divergences else 0
    finally:
        invariants.disable()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import main_serve

    return main_serve(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.protocol import JobStatus, SimulateRequest
    from repro.sim.results import SimResult

    request = SimulateRequest(
        workload=args.workload,
        prefetcher=args.prefetcher,
        scale=args.scale,
        budget_fraction=args.budget_fraction,
        seed=args.seed,
    )
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    if args.stream:
        view = client.submit(request)
        terminal = None
        if view.status.terminal:
            terminal = view
        else:
            for event in client.stream_events(view.job_id,
                                              timeout=args.timeout):
                name = event.pop("_event")
                if name == "terminal":
                    from repro.serve.protocol import JobView

                    terminal = JobView.from_dict(event["job"])
                    break
                print(f"  event: {name} {event.get('status', '')}",
                      file=sys.stderr)
        view = terminal if terminal is not None else client.job(view.job_id)
    else:
        view = client.run(request, timeout=args.timeout)

    flags = []
    if view.deduplicated:
        flags.append("deduplicated")
    if view.cache_hit:
        flags.append("cache hit")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    if view.status is not JobStatus.DONE:
        print(f"job {view.job_id}: {view.status.value}: {view.error}",
              file=sys.stderr)
        return 1
    print(SimResult.from_dict(view.result).summary() + suffix)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.harness.bench import write_bench
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    if args.quick:
        config = LoadgenConfig.quick(
            host=args.host, port=args.port, seed=args.seed)
    else:
        config = LoadgenConfig(
            host=args.host,
            port=args.port,
            requests=args.requests,
            concurrency=args.concurrency,
            duplicate_ratio=args.duplicate_ratio,
            seed=args.seed,
            workloads=tuple(args.workloads.split(",")),
            prefetchers=tuple(args.prefetchers.split(",")),
            budget_fraction=args.budget_fraction,
            scale=args.scale,
        )
    document = run_loadgen(config, announce=print)
    write_bench(document, args.out)
    print(f"\nwrote {args.out}")
    return 1 if document["totals"]["failed"] else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = read_trace(args.path)
    trace.validate()
    stats = trace.stats()
    print(f"name:              {trace.name}")
    print(f"events:            {len(trace)}")
    print(f"instructions:      {stats.instructions}")
    print(f"memory accesses:   {stats.memory_accesses} "
          f"({stats.loads} loads, {stats.stores} stores)")
    print(f"block instances:   {stats.blocks} "
          f"({stats.distinct_block_ids} static blocks)")
    print(f"loop fraction:     {stats.loop_fraction:.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Loop-Aware Memory Prefetching Using Code "
            "Block Working Sets' (MICRO 2014)"
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list workloads or prefetchers")
    list_parser.add_argument(
        "what", choices=["workloads", "prefetchers"])
    _add_cache_arguments(list_parser)
    list_parser.set_defaults(handler=_cmd_list)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="convert an external trace (ChampSim or pc,address CSV; "
             "optionally .xz/.gz) into a registered ext:<name> workload")
    ingest_parser.add_argument(
        "file", help="trace file (.champsimtrace or .csv, "
                     "optionally .xz/.gz compressed)")
    ingest_parser.add_argument(
        "--name", default=None, metavar="N",
        help="workload name: the trace becomes ext:<N> "
             "(default: derived from the file name)")
    ingest_parser.add_argument(
        "--format", choices=["champsim", "csv"], default=None,
        help="decoder to use (default: inferred from the file name)")
    ingest_parser.add_argument(
        "--report", action="store_true",
        help="print the marker-recovery coverage report")
    ingest_parser.add_argument(
        "--force", action="store_true",
        help="allow replacing an existing name with different content "
             "(cached results keyed on the old digest are abandoned)")
    ingest_parser.add_argument(
        "--min-iterations", type=int, default=2, metavar="K",
        help="back-edge traversals before a loop head starts opening "
             "blocks (default 2)")
    _add_cache_arguments(ingest_parser)
    ingest_parser.set_defaults(handler=_cmd_ingest)

    run_parser = subparsers.add_parser(
        "run", help="simulate workload(s) against prefetcher(s)")
    run_parser.add_argument(
        "--workload", default="all",
        help="workload name or 'all' (default all)")
    run_parser.add_argument(
        "--prefetcher", default="all",
        help="prefetcher name or 'all' (default all)")
    run_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the results as JSON to PATH")
    _add_runner_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    figure_parser = subparsers.add_parser(
        "figure", help="reproduce one figure of the paper")
    figure_parser.add_argument("number", choices=sorted(_FIGURES))
    _add_runner_arguments(figure_parser)
    figure_parser.set_defaults(handler=_cmd_figure)

    table_parser = subparsers.add_parser(
        "table", help="reproduce one table of the paper")
    table_parser.add_argument("number", choices=sorted(_TABLES))
    _add_runner_arguments(table_parser)
    table_parser.set_defaults(handler=_cmd_table)

    trace_parser = subparsers.add_parser(
        "trace",
        help="generate and save a workload trace, or `trace info <name>` "
             "to dump a stored ingested trace")
    trace_parser.add_argument(
        "action", nargs="?", choices=["info"],
        help="'info' dumps the registry row of a stored ingested trace")
    trace_parser.add_argument(
        "name", nargs="?",
        help="stored trace name for 'info' (bare or ext:-prefixed)")
    trace_parser.add_argument("--workload", default=None)
    trace_parser.add_argument("--out", default=None)
    trace_parser.add_argument(
        "--accesses", type=int, default=None,
        help="memory-access budget (default: the workload's own)")
    _add_runner_arguments(trace_parser)
    trace_parser.set_defaults(handler=_cmd_trace)

    inspect_parser = subparsers.add_parser(
        "inspect", help="validate and summarize a saved trace")
    inspect_parser.add_argument("path")
    inspect_parser.set_defaults(handler=_cmd_inspect)

    bench_parser = subparsers.add_parser(
        "bench",
        help="replay the pinned hot-path benchmark grid and emit "
             "schema-versioned BENCH_sim_hotpath.json")
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="run the pinned quick subset (CI smoke) instead of the "
             "full fig14 grid")
    bench_parser.add_argument(
        "--out", default="BENCH_sim_hotpath.json", metavar="PATH",
        help="where to write the JSON document "
             "(default BENCH_sim_hotpath.json)")
    bench_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="prior BENCH_*.json to embed and compare against")
    bench_parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on throughput regression beyond --tolerance "
             "or on result-digest drift vs --baseline")
    bench_parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional events/sec regression for --check "
             "(default 0.30)")
    bench_parser.add_argument(
        "--no-cache-phase", action="store_true",
        help="skip the cold/warm result-cache replay phase")
    bench_parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-workload progress lines on stderr")
    _add_profile_argument(bench_parser)
    bench_parser.set_defaults(handler=_cmd_bench)

    check_parser = subparsers.add_parser(
        "check",
        help="differential verification: replay the frozen corpus against "
             "the golden oracles, then fuzz with the remaining budget")
    check_parser.add_argument(
        "--budget", default="30s", metavar="TIME",
        help="wall-clock budget, e.g. 30, 45s, 2m (default 30s)")
    check_parser.add_argument(
        "--seed", type=int, default=0,
        help="fuzzer seed (default 0)")
    check_parser.add_argument(
        "--prefetcher", action="append", default=None, metavar="NAME",
        help="verify one prefetcher by name; repeat the flag to verify "
             "several (e.g. --prefetcher pangloss --prefetcher pythia); "
             "'all' or omitting the flag verifies every oracle-backed "
             "prefetcher")
    check_parser.add_argument(
        "--corpus", default="tests/corpus", metavar="DIR",
        help="frozen trace corpus to replay first (default tests/corpus)")
    check_parser.add_argument(
        "--inject", default=None, metavar="NAME",
        help="fault-injection self-test: verify the harness catches the "
             "named known-bad implementation (e.g. cbws-fifo-off-by-one)")
    check_parser.set_defaults(handler=_cmd_check)

    stats_parser = subparsers.add_parser(
        "exec-stats",
        help="show telemetry of the last recorded grid execution")
    _add_cache_arguments(stats_parser)
    stats_parser.set_defaults(handler=_cmd_exec_stats)

    runs_parser = subparsers.add_parser(
        "runs", help="inspect journaled runs")
    runs_parser.add_argument("action", choices=["list"])
    _add_cache_arguments(runs_parser)
    runs_parser.set_defaults(handler=_cmd_runs)

    cache_parser = subparsers.add_parser(
        "cache", help="manage the content-addressed result cache")
    cache_sub = cache_parser.add_subparsers(dest="action", required=True)
    gc_parser = cache_sub.add_parser(
        "gc",
        help="bound the result cache by size and/or age "
             "(oldest entries evicted first; eviction is always safe — "
             "a future miss recomputes)")
    gc_parser.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="evict oldest entries until the cache fits SIZE "
             "(e.g. 500M, 2G)")
    gc_parser.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="evict entries older than AGE (e.g. 6h, 7d)")
    gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything")
    _add_cache_arguments(gc_parser)
    gc_parser.set_defaults(handler=_cmd_cache_gc)

    def _add_campaign_exec_arguments(
            parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--jobs", type=int, default=0, metavar="N",
            help="worker processes for the grid executor "
                 "(0 = all cores, 1 = in-process; default 0)")
        parser.add_argument(
            "--executor", choices=["grid", "serve"], default="grid",
            help="run cells on the local grid engine (default) or drive "
                 "a running `repro serve` endpoint")
        parser.add_argument(
            "--host", default="127.0.0.1",
            help="serve-executor server address")
        parser.add_argument(
            "--port", type=int, default=8321,
            help="serve-executor server port (default 8321)")
        _add_cache_arguments(parser)
        _add_profile_argument(parser)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="journaled, resumable parameter-space sweeps with adaptive "
             "refinement")
    campaign_sub = campaign_parser.add_subparsers(dest="action",
                                                  required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a sweep spec (.toml or .json)")
    campaign_run.add_argument("spec", help="path to the campaign spec file")
    campaign_run.add_argument(
        "--id", default=None, metavar="ID",
        help="campaign identifier (default: a fresh timestamped id)")
    _add_campaign_exec_arguments(campaign_run)
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume",
        help="re-attach to an interrupted campaign; journaled cells "
             "replay from the cache, only the remainder executes")
    campaign_resume.add_argument("campaign_id", metavar="ID")
    campaign_resume.add_argument(
        "--spec", default=None, metavar="PATH",
        help="original spec file (default: recovered from the journal)")
    _add_campaign_exec_arguments(campaign_resume)
    campaign_resume.set_defaults(handler=_cmd_campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="list campaigns under the cache dir, newest first")
    _add_cache_arguments(campaign_status)
    campaign_status.set_defaults(handler=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report",
        help="regenerate campaign.json / campaign.html from the journal "
             "and result cache (recomputes nothing that is cached)")
    campaign_report.add_argument("campaign_id", metavar="ID")
    campaign_report.add_argument(
        "--spec", default=None, metavar="PATH",
        help="original spec file (default: recovered from the journal)")
    _add_campaign_exec_arguments(campaign_report)
    campaign_report.set_defaults(handler=_cmd_campaign_report)

    campaign_bench = campaign_sub.add_parser(
        "bench",
        help="run the quick reference campaign and emit "
             "schema-versioned BENCH_campaign.json")
    campaign_bench.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1, in-process)")
    campaign_bench.add_argument(
        "--out", default="BENCH_campaign.json", metavar="PATH",
        help="where to write the document (default BENCH_campaign.json)")
    campaign_bench.add_argument(
        "--no-progress", action="store_true",
        help="suppress phase progress lines on stderr")
    _add_profile_argument(campaign_bench)
    campaign_bench.set_defaults(handler=_cmd_campaign_bench)

    verify_parser = subparsers.add_parser(
        "verify-artifacts",
        help="checksum-verify ingested traces, cached results, and run "
             "journals")
    verify_parser.add_argument(
        "--purge", action="store_true",
        help="delete corrupt artifacts so the next run rebuilds them")
    _add_cache_arguments(verify_parser)
    verify_parser.set_defaults(handler=_cmd_verify_artifacts)

    serve_parser = subparsers.add_parser(
        "serve",
        help="expose the simulation grid as an HTTP API "
             "(admission control, single-flight dedup, micro-batching)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)")
    serve_parser.add_argument(
        "--port", type=int, default=8321,
        help="TCP port; 0 picks a free one (default 8321)")
    serve_parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes behind the broker "
             "(0 = all cores; default 0)")
    serve_parser.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="admission bound: queued+running jobs before the server "
             "answers 429 (default 64)")
    serve_parser.add_argument(
        "--batch-window", type=float, default=0.02, metavar="SECONDS",
        help="micro-batching gather window (default 0.02)")
    serve_parser.add_argument(
        "--batch-max", type=int, default=16, metavar="N",
        help="largest micro-batch submitted to the pool (default 16)")
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell simulation timeout (default: none)")
    serve_parser.add_argument(
        "--no-recover", action="store_true",
        help="skip re-admitting journaled-but-unfinished jobs on startup")
    _add_cache_arguments(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="submit one simulation to a running `repro serve`")
    submit_parser.add_argument("--workload", required=True)
    submit_parser.add_argument("--prefetcher", required=True)
    submit_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload footprint/trip-count scale factor (default 1.0)")
    submit_parser.add_argument(
        "--budget-fraction", type=float, default=1.0,
        help="fraction of the workload's access budget (default 1.0)")
    submit_parser.add_argument(
        "--seed", type=int, default=0, help="workload data seed (default 0)")
    submit_parser.add_argument(
        "--host", default="127.0.0.1", help="server address")
    submit_parser.add_argument(
        "--port", type=int, default=8321, help="server port (default 8321)")
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the result (default 600)")
    submit_parser.add_argument(
        "--stream", action="store_true",
        help="follow the job's SSE event stream instead of polling")
    submit_parser.set_defaults(handler=_cmd_submit)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="closed-loop load generator against a running `repro serve`; "
             "emits schema-versioned BENCH_serve.json")
    loadgen_parser.add_argument(
        "--host", default="127.0.0.1", help="server address")
    loadgen_parser.add_argument(
        "--port", type=int, default=8321, help="server port (default 8321)")
    loadgen_parser.add_argument(
        "--quick", action="store_true",
        help="the pinned CI smoke shape (12 requests, duplicate-heavy)")
    loadgen_parser.add_argument(
        "--requests", type=int, default=40,
        help="plan size before paired duplicates (default 40)")
    loadgen_parser.add_argument(
        "--concurrency", type=int, default=4,
        help="closed-loop worker threads (default 4)")
    loadgen_parser.add_argument(
        "--duplicate-ratio", type=float, default=0.25,
        help="fraction of items submitted twice back-to-back to "
             "exercise single-flight (default 0.25)")
    loadgen_parser.add_argument(
        "--seed", type=int, default=0,
        help="request-mix seed (default 0)")
    loadgen_parser.add_argument(
        "--workloads", default="nw,stencil-default",
        help="comma-separated workload mix")
    loadgen_parser.add_argument(
        "--prefetchers", default="no-prefetch,stride,cbws",
        help="comma-separated prefetcher mix")
    loadgen_parser.add_argument(
        "--budget-fraction", type=float, default=0.05,
        help="budget fraction of every request (default 0.05)")
    loadgen_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor of every request (default 1.0)")
    loadgen_parser.add_argument(
        "--out", default="BENCH_serve.json", metavar="PATH",
        help="where to write the document (default BENCH_serve.json)")
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.exec import faults

    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        # Export the ingest-store location so exec-pool workers resolve
        # ext: workloads against the same store as this process.  An
        # explicit env var wins.
        os.environ.setdefault(
            "REPRO_INGEST_STORE", os.path.join(cache_dir, "ingest"))
    profiling = getattr(args, "profile", False)
    if profiling:
        obs.enable()
    try:
        faults.install_from_env()
        code = args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Workers flush the journal per record and telemetry in
        # their own finally blocks, so the interrupt just needs the
        # conventional exit status.
        print("interrupted", file=sys.stderr)
        return 130
    if profiling:
        print()
        print(obs.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
