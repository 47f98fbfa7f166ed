"""Workload specification and trace construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.common.errors import WorkloadError
from repro.ir.interp import ExecutionLimits
from repro.ir.nodes import Kernel
from repro.passes.annotate import annotate_tight_loops
from repro.trace.stream import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark of the evaluation suite.

    Attributes:
        name: the paper's benchmark label (e.g. ``"stencil-default"``).
        suite: originating suite (SPEC2006, PARSEC, SPLASH, Parboil,
            Rodinia).
        group: ``"mi"`` (memory-intensive, Table IV) or ``"low"``.
        description: one-line summary of the mimicked behaviour.
        build: factory producing the kernel; ``scale`` multiplies data
            footprints and trip counts (1.0 = the reduced default).
        default_accesses: memory-access budget used by the experiment
            harness at scale 1.0.
    """

    name: str
    suite: str
    group: str
    description: str
    build: Callable[[float], Kernel]
    default_accesses: int = 60_000

    def kernel(self, scale: float = 1.0) -> Kernel:
        """Build the kernel at the given scale."""
        if scale <= 0:
            raise WorkloadError(f"{self.name}: scale must be positive")
        return self.build(scale)


def access_budget(spec: WorkloadSpec, scale: float,
                  budget_fraction: float) -> int:
    """The access budget of one grid trace (never below 1,000 accesses)."""
    return max(1000, int(spec.default_accesses * scale * budget_fraction))


def build_trace(
    spec: WorkloadSpec,
    scale: float = 1.0,
    max_accesses: int | None = None,
    seed: int = 0,
) -> Trace:
    """Build, annotate, execute, and validate one workload trace.

    This is the whole software pipeline of the paper in one call:
    compile the kernel (validate + number PCs), run the tight-loop
    annotation pass, and execute it to produce the commit-order trace.

    The kernel runs on the compiled backend
    (:func:`repro.ir.compile.run_kernel_compiled`); the tree-walking
    interpreter (:func:`repro.ir.interp.run_kernel`) produces the same
    trace and serves as the tests' reference.

    ``ext:`` workloads short-circuit the pipeline: their trace was
    fixed at ingest time, so this loads it from the ingest store
    (truncated to the access budget) — ``seed`` has no effect on
    externally recorded content.
    """
    if spec.group == "ext":
        from repro.ingest.store import IngestStore

        with obs.phase("trace.load.ext"):
            budget = max_accesses if max_accesses is not None else int(
                spec.default_accesses * scale
            )
            trace = IngestStore().load_trace(spec.name, max_accesses=budget)
            trace.validate()
            obs.add("trace.load.ext.events", len(trace.events))
        return trace
    with obs.phase("trace.build"):
        kernel = spec.kernel(scale)
        annotate_tight_loops(kernel)
        budget = max_accesses if max_accesses is not None else int(
            spec.default_accesses * scale
        )
        limits = ExecutionLimits(max_memory_accesses=budget)
        from repro.ir.compile import run_kernel_compiled

        trace = run_kernel_compiled(kernel, seed=seed, limits=limits)
        trace.validate()
        if not any(True for _ in trace.memory_events()):
            raise WorkloadError(f"{spec.name}: produced an empty trace")
        obs.add("trace.build.events", len(trace.events))
    return trace


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by its paper name.

    Names in the ``ext:`` namespace resolve through the ingest store
    instead of the synthetic registry: the spec is fabricated from the
    stored trace's registry row (its access count becomes the default
    budget), so ingested traces flow through the harness, exec grid,
    serve broker, and campaigns exactly like synthetic kernels.
    """
    if name.startswith("ext:"):
        return _ext_workload(name)
    from repro.workloads.registry import REGISTRY

    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None


def _ext_workload(name: str) -> WorkloadSpec:
    from repro.common.errors import IngestRegistryError
    from repro.ingest.store import IngestStore

    try:
        record = IngestStore().get(name)
    except IngestRegistryError as error:
        raise WorkloadError(str(error)) from error

    def _no_kernel(scale: float) -> Kernel:
        raise WorkloadError(
            f"{name}: external traces have no kernel; the trace was "
            "fixed at ingest time"
        )

    return WorkloadSpec(
        name=record.workload,
        suite="external",
        group="ext",
        description=(
            f"ingested {record.format} trace "
            f"({record.accesses} accesses, "
            f"{record.coverage:.0%} marker coverage)"
        ),
        build=_no_kernel,
        default_accesses=record.accesses,
    )
