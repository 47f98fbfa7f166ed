"""One function per paper table/figure.

Every function returns a small dataclass holding the measured data plus a
``render()`` method producing the rows the paper reports.  The bench
targets in ``benchmarks/`` call these and print the rendering; tests call
them at tiny budgets and assert the expected *shape* (who wins, roughly
by what factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.differentials import (
    DifferentialDistribution,
    differential_distribution,
    extract_cbws_sequences,
)
from repro.analysis.workingsets import (
    WorkingSetDistribution,
    working_set_distribution,
)
from repro.core.cbws import differential
from repro.core.predictor import CbwsConfig
from repro.harness.registry import PAPER_PREFETCHER_ORDER
from repro.harness.report import format_percent_table, format_table
from repro.harness.runner import GridRunner
from repro.metrics.aggregate import ResultGrid, arithmetic_mean
from repro.metrics.perfcost import perf_cost_table
from repro.metrics.speedup import speedup_table
from repro.metrics.timeliness import TimelinessBreakdown, timeliness_breakdown
from repro.passes.loopstats import LoopRuntimeStats, loop_runtime_stats
from repro.prefetchers.ghb import GhbConfig
from repro.prefetchers.sms import SmsConfig
from repro.prefetchers.storage import (
    cbws_storage,
    ghb_gdc_storage,
    ghb_pcdc_storage,
    sms_storage,
    stride_storage,
    StorageEstimate,
)
from repro.prefetchers.stride import StrideConfig
from repro.sim.results import SimResult
from repro.workloads.registry import ALL_WORKLOADS, LOW_WORKLOADS, MI_WORKLOADS

#: The Figure 5 benchmark subset.
FIGURE5_WORKLOADS = [
    "450.soplex-ref",
    "433.milc-su3imp",
    "stencil-default",
    "radix-simlarge",
    "sgemm-medium",
    "streamcluster-simlarge",
]

#: Prefetchers shown in Figures 12/13/15 (13 omits the no-prefetch bar).
EVALUATED_PREFETCHERS = PAPER_PREFETCHER_ORDER


# ---------------------------------------------------------------------------
# Figure 1 — fraction of runtime in tight loops
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    """Loop-runtime fractions for the memory-intensive benchmarks."""

    stats: dict[str, LoopRuntimeStats]

    @property
    def average(self) -> float:
        """Mean loop fraction over the group (the paper reports >70%)."""
        return arithmetic_mean(
            [stat.loop_fraction for stat in self.stats.values()]
        )

    def render(self) -> str:
        rows = [
            [name, stat.loop_fraction, stat.block_instances]
            for name, stat in self.stats.items()
        ]
        rows.append(["average", self.average, ""])
        return format_table(
            ["benchmark", "loop fraction", "block instances"],
            rows,
            title="Figure 1: fraction of runtime in tight innermost loops",
            float_format="{:.1%}",
        )


def figure1(runner: GridRunner | None = None) -> Figure1Result:
    """Measure the tight-loop runtime fraction for the MI group."""
    runner = runner or GridRunner()
    stats = {
        name: loop_runtime_stats(runner.trace(name)) for name in MI_WORKLOADS
    }
    return Figure1Result(stats=stats)


# ---------------------------------------------------------------------------
# Table I / Figures 3-4 — CBWS construction worked example
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    """First CBWS vectors of the stencil's innermost loop and their
    consecutive differentials — the Figure 3 / Figure 4 matrices."""

    cbws_vectors: list[tuple[int, ...]]
    differentials: list[tuple[int, ...]]

    @property
    def constant_differential(self) -> bool:
        """True when all shown differentials are identical (Figure 4)."""
        return len(set(self.differentials)) == 1 if self.differentials else False

    def render(self) -> str:
        lines = ["Figure 3: stencil CBWS vectors (cache line numbers)"]
        for index, cbws in enumerate(self.cbws_vectors):
            lines.append(f"  CBWS{index} = {cbws}")
        lines.append("Figure 4: consecutive CBWS differentials")
        for index, delta in enumerate(self.differentials):
            lines.append(f"  CBWS{index + 1}-CBWS{index} = {delta}")
        return "\n".join(lines)


def table1(runner: GridRunner | None = None, instances: int = 8) -> Table1Result:
    """Extract the first stencil CBWSs and their differentials."""
    runner = runner or GridRunner()
    sequences = extract_cbws_sequences(runner.trace("stencil-default"))
    block_id = min(sequences)
    # Skip the first instance: it has no predecessor and the second may
    # still be warming the line-sharing pattern up.
    vectors = sequences[block_id][1 : 1 + instances]
    deltas = [
        differential(older, newer) for older, newer in zip(vectors, vectors[1:])
    ]
    return Table1Result(cbws_vectors=vectors, differentials=deltas)


# ---------------------------------------------------------------------------
# Figure 5 — skew of the CBWS differential distribution
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    """Differential-vector coverage curves per benchmark."""

    distributions: dict[str, DifferentialDistribution]

    def render(self) -> str:
        rows = []
        for name, dist in self.distributions.items():
            rows.append([
                name,
                dist.distinct_vectors,
                dist.coverage_at(0.05),
                dist.coverage_at(0.10),
                dist.coverage_at(0.25),
            ])
        return format_table(
            ["benchmark", "distinct", "top 5%", "top 10%", "top 25%"],
            rows,
            title=(
                "Figure 5: fraction of iterations covered by the most "
                "frequent differential vectors"
            ),
            float_format="{:.1%}",
        )


def figure5(runner: GridRunner | None = None) -> Figure5Result:
    """Measure differential skew for the Figure 5 benchmark subset."""
    runner = runner or GridRunner()
    distributions = {
        name: differential_distribution(runner.trace(name))
        for name in FIGURE5_WORKLOADS
    }
    return Figure5Result(distributions=distributions)


# ---------------------------------------------------------------------------
# Table III — storage budgets
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    """Storage bill of materials per prefetcher."""

    estimates: dict[str, StorageEstimate]

    def render(self) -> str:
        rows = [
            [name, estimate.bits, estimate.kilobytes]
            for name, estimate in self.estimates.items()
        ]
        return format_table(
            ["prefetcher", "bits", "KB"],
            rows,
            title="Table III: hardware storage requirements",
            float_format="{:.2f}",
        )


def table3() -> Table3Result:
    """Compute storage budgets from the Table II geometries."""
    ghb = GhbConfig()
    return Table3Result(
        estimates={
            "stride": stride_storage(StrideConfig()),
            "ghb-g/dc": ghb_gdc_storage(ghb),
            "ghb-pc/dc": ghb_pcdc_storage(ghb),
            "sms": sms_storage(SmsConfig()),
            "cbws": cbws_storage(CbwsConfig()),
        }
    )


# ---------------------------------------------------------------------------
# Figures 12-15 — the main evaluation grid
# ---------------------------------------------------------------------------


@dataclass
class Figure12Result:
    """MPKI per (MI workload, prefetcher)."""

    grid: ResultGrid

    def mpki(self, workload: str, prefetcher: str) -> float:
        return self.grid.get(workload, prefetcher).mpki

    def average(self, prefetcher: str) -> float:
        return self.grid.metric_average(prefetcher, lambda r: r.mpki)

    def render(self) -> str:
        headers = ["benchmark", *EVALUATED_PREFETCHERS]
        rows = []
        for workload in self.grid.workloads:
            rows.append([
                workload,
                *[self.mpki(workload, p) for p in EVALUATED_PREFETCHERS],
            ])
        rows.append([
            "average-MI",
            *[self.average(p) for p in EVALUATED_PREFETCHERS],
        ])
        return format_table(
            headers, rows,
            title="Figure 12: last-level-cache MPKI (lower is better)",
            float_format="{:.2f}",
        )


def figure12(runner: GridRunner | None = None) -> Figure12Result:
    """MPKI over the memory-intensive grid."""
    runner = runner or GridRunner()
    grid = runner.run_grid(MI_WORKLOADS, EVALUATED_PREFETCHERS)
    return Figure12Result(grid=grid)


@dataclass
class Figure13Result:
    """Timeliness/accuracy decomposition per (MI workload, prefetcher)."""

    grid: ResultGrid

    def breakdown(self, workload: str, prefetcher: str) -> TimelinessBreakdown:
        return timeliness_breakdown(self.grid.get(workload, prefetcher))

    def average_fraction(self, prefetcher: str, attribute: str) -> float:
        values = [
            getattr(self.breakdown(workload, prefetcher), attribute)
            for workload in self.grid.workloads
        ]
        return arithmetic_mean(values)

    def render(self) -> str:
        prefetchers = [p for p in EVALUATED_PREFETCHERS if p != "no-prefetch"]
        rows = []
        for prefetcher in prefetchers:
            rows.append([
                prefetcher,
                self.average_fraction(prefetcher, "timely"),
                self.average_fraction(prefetcher, "shorter_waiting"),
                self.average_fraction(prefetcher, "non_timely"),
                self.average_fraction(prefetcher, "missing"),
                self.average_fraction(prefetcher, "wrong"),
            ])
        return format_percent_table(
            ["prefetcher", "timely", "shorter-wait", "non-timely",
             "missing", "wrong"],
            rows,
            title=(
                "Figure 13: timeliness and accuracy, averaged over the "
                "memory-intensive group (fractions of demand L2 accesses)"
            ),
        )


def figure13(runner: GridRunner | None = None) -> Figure13Result:
    """Timeliness/accuracy over the memory-intensive grid."""
    runner = runner or GridRunner()
    prefetchers = [p for p in EVALUATED_PREFETCHERS if p != "no-prefetch"]
    grid = runner.run_grid(MI_WORKLOADS, prefetchers)
    return Figure13Result(grid=grid)


@dataclass
class Figure14Result:
    """IPC normalized to SMS for both benchmark groups."""

    grid: ResultGrid
    mi_table: dict[str, dict[str, float]]
    low_table: dict[str, dict[str, float]]
    all_table: dict[str, dict[str, float]]

    def speedup(self, workload: str, prefetcher: str) -> float:
        table = self.mi_table if workload in self.mi_table else self.low_table
        # DEGRADED cells are absent from the table; NaN renders as an
        # explicit hole instead of raising.
        return table[workload].get(prefetcher, float("nan"))

    def average_mi(self, prefetcher: str) -> float:
        return self.mi_table["average"][prefetcher]

    def average_all(self, prefetcher: str) -> float:
        return self.all_table["average"][prefetcher]

    def render(self) -> str:
        headers = ["benchmark", *EVALUATED_PREFETCHERS]
        rows = []
        for workload, values in self.mi_table.items():
            if workload == "average":
                continue
            rows.append([workload, *[values.get(p, float("nan"))
                                     for p in EVALUATED_PREFETCHERS]])
        rows.append([
            "average-MI", *[self.average_mi(p) for p in EVALUATED_PREFETCHERS]
        ])
        for workload, values in self.low_table.items():
            if workload == "average":
                continue
            rows.append([workload, *[values.get(p, float("nan"))
                                     for p in EVALUATED_PREFETCHERS]])
        rows.append([
            "average-ALL", *[self.average_all(p) for p in EVALUATED_PREFETCHERS]
        ])
        return format_table(
            headers, rows,
            title="Figure 14: IPC normalized to SMS (higher is better)",
            float_format="{:.2f}",
        )


def figure14(runner: GridRunner | None = None) -> Figure14Result:
    """Normalized IPC over all 30 benchmarks."""
    runner = runner or GridRunner()
    grid = runner.run_grid(ALL_WORKLOADS, EVALUATED_PREFETCHERS)
    return Figure14Result(
        grid=grid,
        mi_table=speedup_table(grid, workloads=MI_WORKLOADS),
        low_table=speedup_table(grid, workloads=LOW_WORKLOADS),
        all_table=speedup_table(grid, workloads=ALL_WORKLOADS),
    )


@dataclass
class Figure15Result:
    """Performance/cost (IPC per byte read) relative to no-prefetch."""

    grid: ResultGrid
    table: dict[str, dict[str, float]]

    def perf_cost(self, workload: str, prefetcher: str) -> float:
        return self.table[workload].get(prefetcher, float("nan"))

    def average(self, prefetcher: str) -> float:
        return self.table["average"][prefetcher]

    def render(self) -> str:
        headers = ["benchmark", *EVALUATED_PREFETCHERS]
        rows = []
        for workload, values in self.table.items():
            if workload == "average":
                continue
            rows.append([workload, *[values.get(p, float("nan"))
                                     for p in EVALUATED_PREFETCHERS]])
        rows.append([
            "average-MI", *[self.average(p) for p in EVALUATED_PREFETCHERS]
        ])
        return format_table(
            headers, rows,
            title=(
                "Figure 15: performance/cost, IPC per byte read, "
                "normalized to no-prefetch (higher is better)"
            ),
            float_format="{:.2f}",
        )


def figure15(runner: GridRunner | None = None) -> Figure15Result:
    """Performance/cost over the memory-intensive grid."""
    runner = runner or GridRunner()
    grid = runner.run_grid(MI_WORKLOADS, EVALUATED_PREFETCHERS)
    return Figure15Result(grid=grid, table=perf_cost_table(grid))


# ---------------------------------------------------------------------------
# Section IV-A claim — 16 lines cover ~all dynamic blocks
# ---------------------------------------------------------------------------


@dataclass
class WorkingSetClaimResult:
    """Dynamic working-set size distribution across the full suite."""

    distributions: dict[str, WorkingSetDistribution]
    capacity: int = 16

    @property
    def overall_fraction(self) -> float:
        """Weighted fraction of dynamic blocks fitting the capacity."""
        total = sum(d.blocks for d in self.distributions.values())
        if total == 0:
            return 0.0
        covered = sum(
            d.fraction_within(self.capacity) * d.blocks
            for d in self.distributions.values()
        )
        return covered / total

    def render(self) -> str:
        rows = [
            [name, dist.blocks, dist.fraction_within(self.capacity),
             dist.max_size]
            for name, dist in self.distributions.items()
        ]
        rows.append(["overall", "", self.overall_fraction, ""])
        return format_table(
            ["benchmark", "blocks", f"<= {self.capacity} lines", "max"],
            rows,
            title=(
                "Section IV-A: dynamic code blocks whose working set fits "
                f"{self.capacity} cache lines"
            ),
            float_format="{:.1%}",
        )


def working_set_claim(
    runner: GridRunner | None = None,
    capacity: int = 16,
    workloads: list[str] | None = None,
) -> WorkingSetClaimResult:
    """Check the "16 lines map >98% of dynamic blocks" claim."""
    runner = runner or GridRunner()
    names = workloads if workloads is not None else ALL_WORKLOADS
    distributions = {
        name: working_set_distribution(runner.trace(name)) for name in names
    }
    return WorkingSetClaimResult(distributions=distributions, capacity=capacity)


# ---------------------------------------------------------------------------
# Ablations — design choices called out in Sections IV and V
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """IPC per (workload, variant) for one swept parameter."""

    parameter: str
    values: list[int]
    ipc: dict[str, dict[int, float]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["benchmark", *[f"{self.parameter}={v}" for v in self.values]]
        rows = [
            [workload, *[by_value[v] for v in self.values]]
            for workload, by_value in self.ipc.items()
        ]
        return format_table(
            headers, rows,
            title=f"Ablation: CBWS {self.parameter} sweep (IPC)",
            float_format="{:.3f}",
        )


def _run_ablation(
    runner: GridRunner,
    parameter: str,
    values: list[int],
    workloads: list[str],
) -> AblationResult:
    names = [f"cbws[{parameter}={value}]" for value in values]
    grid = runner.run_grid(workloads, names)
    result = AblationResult(parameter=parameter, values=values)
    for workload in workloads:
        result.ipc[workload] = {
            value: grid.get(workload, name).ipc
            for value, name in zip(values, names)
        }
    return result


ABLATION_WORKLOADS = ["stencil-default", "sgemm-medium", "fft-simlarge"]


def ablation_history_depth(
    runner: GridRunner | None = None,
    values: list[int] | None = None,
) -> AblationResult:
    """Sweep the number of predecessor CBWSs / prediction steps
    (Section IV-C: "a history of 4 differentials provides sufficient
    performance").  ``predict_steps`` follows ``max_step`` up to the
    default 4 (see :func:`repro.harness.registry.make_prefetcher`)."""
    runner = runner or GridRunner()
    values = values or [1, 2, 4]
    return _run_ablation(runner, "max_step", values,
                         ABLATION_WORKLOADS)


def ablation_table_size(
    runner: GridRunner | None = None,
    values: list[int] | None = None,
) -> AblationResult:
    """Sweep the differential history table capacity (Section VII-A:
    16 entries are "too small" for fft/streamcluster)."""
    runner = runner or GridRunner()
    values = values or [4, 16, 64]
    return _run_ablation(runner, "table_entries", values,
                         ABLATION_WORKLOADS)


def ablation_vector_members(
    runner: GridRunner | None = None,
    values: list[int] | None = None,
) -> AblationResult:
    """Sweep the CBWS buffer capacity (Section VII-C: bzip2's blocks
    overflow 16 lines, but "increasing the number of differentials is
    not justified" for the rest of the suite)."""
    runner = runner or GridRunner()
    values = values or [8, 16, 32]
    return _run_ablation(runner, "max_vector_members", values,
                         ["401.bzip2-source", "stencil-default", "sgemm-medium"])


# ---------------------------------------------------------------------------
# Extension — AMPM comparison (related work, Section III-A)
# ---------------------------------------------------------------------------


@dataclass
class ExtensionAmpmResult:
    """IPC of AMPM against the paper's key policies."""

    grid: ResultGrid

    def render(self) -> str:
        prefetchers = ["no-prefetch", "sms", "ampm", "cbws", "cbws+sms"]
        rows = []
        for workload in self.grid.workloads:
            rows.append([
                workload,
                *[self.grid.get(workload, p).ipc for p in prefetchers],
            ])
        return format_table(
            ["benchmark", *prefetchers], rows,
            title=(
                "Extension: AMPM (zone bitmaps, not PC-based) vs the "
                "paper's policies (IPC)"
            ),
            float_format="{:.3f}",
        )


EXTENSION_AMPM_WORKLOADS = [
    "stencil-default",
    "sgemm-medium",
    "462.libquantum-ref",
    "streamcluster-simlarge",
]


def extension_ampm(runner: GridRunner | None = None) -> ExtensionAmpmResult:
    """Compare AMPM with SMS and the CBWS schemes.

    The paper argues (Section III-A) that AMPM, being zone-local, "first
    identifies patterns inside an iteration and, only if such patterns
    are not found, may identify patterns across iterations" — so it
    trails CBWS on loops whose iterations stride across zones (stencil,
    sgemm) while matching it on dense streaming (libquantum).
    """
    runner = runner or GridRunner()
    grid = runner.run_grid(
        EXTENSION_AMPM_WORKLOADS,
        ["no-prefetch", "sms", "ampm", "cbws", "cbws+sms"],
    )
    return ExtensionAmpmResult(grid=grid)


@dataclass
class ExtensionRobustnessResult:
    """Markov correlation and FDP throttling against the hybrid."""

    grid: ResultGrid

    def render(self) -> str:
        prefetchers = ["no-prefetch", "sms", "markov", "cbws+sms",
                       "fdp(cbws+sms)"]
        rows = []
        for workload in self.grid.workloads:
            rows.append([
                workload,
                *[self.grid.get(workload, p).ipc for p in prefetchers],
            ])
        wrong = ["wrong-fraction"]
        for p in prefetchers:
            values = [
                self.grid.get(w, p).wrong_fraction
                for w in self.grid.workloads
            ]
            wrong.append(sum(values) / len(values))
        rows.append(wrong)
        return format_table(
            ["benchmark", *prefetchers], rows,
            title=(
                "Extension: Markov correlation + feedback-directed "
                "throttling (IPC; last row = mean wrong fraction)"
            ),
            float_format="{:.3f}",
        )


EXTENSION_ROBUSTNESS_WORKLOADS = [
    "429.mcf-ref",
    "stencil-default",
    "histo-large",
]


def extension_robustness(
    runner: GridRunner | None = None,
) -> ExtensionRobustnessResult:
    """Two related-work mechanisms the paper cites but does not evaluate.

    * Markov ([13]) covers *repeating* irregular sequences — mcf's tree
      walks — that no stride/delta/CBWS scheme predicts;
    * FDP ([30]) throttles the hybrid's aggressiveness by measured
      accuracy, trimming wrong prefetches on hostile workloads (histo)
      at a small cost on the showcases.
    """
    runner = runner or GridRunner()
    grid = runner.run_grid(
        EXTENSION_ROBUSTNESS_WORKLOADS,
        ["no-prefetch", "sms", "markov", "cbws+sms", "fdp(cbws+sms)"],
    )
    return ExtensionRobustnessResult(grid=grid)


# ---------------------------------------------------------------------------
# Extension — learned prefetchers (post-2014 related work)
# ---------------------------------------------------------------------------


#: The comparison set: the paper's CBWS schemes against the two learned
#: families, with no-prefetch as the speedup baseline.
EXTENSION_LEARNED_PREFETCHERS = [
    "no-prefetch",
    "cbws",
    "cbws+sms",
    "pangloss",
    "pythia",
]


@dataclass
class ExtensionLearnedResult:
    """Learned prefetchers (Pangloss, Pythia) against the CBWS schemes."""

    grid: ResultGrid

    def render(self) -> str:
        from repro.metrics.aggregate import geometric_mean

        prefetchers = EXTENSION_LEARNED_PREFETCHERS
        rows = []
        for workload in self.grid.workloads:
            rows.append([
                workload,
                *[self.grid.get(workload, p).ipc for p in prefetchers],
            ])
        speedups = ["geomean-speedup", 1.0]
        for p in prefetchers[1:]:
            speedups.append(geometric_mean([
                self.grid.get(w, p).ipc / self.grid.get(w, "no-prefetch").ipc
                for w in self.grid.workloads
            ]))
        rows.append(speedups)
        accuracy: list[object] = ["mean-accuracy", "-"]
        for p in prefetchers[1:]:
            values = [
                self.grid.get(w, p).accuracy for w in self.grid.workloads
            ]
            accuracy.append(sum(values) / len(values))
        rows.append(accuracy)
        return format_table(
            ["benchmark", *prefetchers], rows,
            title=(
                "Extension: learned prefetchers — Pangloss (Markov "
                "frequency) and Pythia (tabular RL) vs CBWS (IPC; last "
                "rows = geomean speedup over no-prefetch, mean accuracy)"
            ),
            float_format="{:.3f}",
        )


def extension_learned(runner: GridRunner | None = None) -> ExtensionLearnedResult:
    """Compare the learned family with CBWS over the full suite.

    Pangloss ([arXiv 1906.00877]) keeps per-page delta transitions with
    frequency-decayed counters; Pythia ([arXiv 2109.12021]) learns a
    prefetch-delta policy online from demand feedback.  Both are
    *loop-agnostic*: the interesting comparison is whether CBWS's
    explicit loop annotations still win on the paper's loop-heavy suite
    (stencil, sgemm) while the learned schemes close the gap on dense
    streaming (libquantum) and degrade more gracefully on pointer
    chasing (mcf), where their confidence/reward gates suppress issue.
    """
    runner = runner or GridRunner()
    grid = runner.run_grid(ALL_WORKLOADS, EXTENSION_LEARNED_PREFETCHERS)
    return ExtensionLearnedResult(grid=grid)
