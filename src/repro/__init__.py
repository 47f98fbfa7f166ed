"""repro — a full reproduction of "Loop-Aware Memory Prefetching Using
Code Block Working Sets" (Fuchs, Mannor, Weiser, Etsion; MICRO 2014).

The package implements the paper's contribution — the CBWS prefetcher —
together with every substrate its evaluation depends on: a loop-kernel
IR with an annotating compiler pass, a trace format, a two-level cache
hierarchy, the Stride/GHB/SMS comparison prefetchers, a trace-driven
timing model, 30 benchmark kernels, and an experiment harness that
regenerates each table and figure.

Quickstart::

    from repro import GridRunner, experiments

    runner = GridRunner()                    # reduced Table II machine
    fig14 = experiments.figure14(runner)     # the headline speedup plot
    print(fig14.render())

See ``examples/`` for runnable walkthroughs and DESIGN.md for the system
inventory.
"""

from repro.core import (
    CbwsConfig,
    CbwsPredictor,
    CbwsPrefetcher,
    CbwsSmsPrefetcher,
    CodeBlockWorkingSet,
    differential,
)
from repro.harness import (
    GridRunner,
    PAPER_PREFETCHER_ORDER,
    experiments,
    make_prefetcher,
)
from repro.memory import CacheConfig, CacheHierarchy, HierarchyConfig
from repro.prefetchers import (
    GhbConfig,
    GhbPrefetcher,
    NoPrefetcher,
    Prefetcher,
    SmsConfig,
    SmsPrefetcher,
    StrideConfig,
    StridePrefetcher,
)
from repro.sim import (
    PAPER_CONFIG,
    REDUCED_CONFIG,
    SimConfig,
    SimResult,
    simulate,
)
from repro.workloads import (
    ALL_WORKLOADS,
    LOW_WORKLOADS,
    MI_WORKLOADS,
    build_trace,
    get_workload,
)

def _detect_version() -> str:
    """Installed distribution version, falling back for src checkouts.

    ``PYTHONPATH=src`` runs (tests, CI) have no installed distribution,
    so the fallback literal below must track ``pyproject.toml``.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return "1.0.0"


__version__ = _detect_version()

__all__ = [
    "__version__",
    # core contribution
    "CodeBlockWorkingSet",
    "differential",
    "CbwsConfig",
    "CbwsPredictor",
    "CbwsPrefetcher",
    "CbwsSmsPrefetcher",
    # prefetchers
    "Prefetcher",
    "NoPrefetcher",
    "StrideConfig",
    "StridePrefetcher",
    "GhbConfig",
    "GhbPrefetcher",
    "SmsConfig",
    "SmsPrefetcher",
    # memory + sim
    "CacheConfig",
    "HierarchyConfig",
    "CacheHierarchy",
    "SimConfig",
    "SimResult",
    "PAPER_CONFIG",
    "REDUCED_CONFIG",
    "simulate",
    # workloads + harness
    "ALL_WORKLOADS",
    "MI_WORKLOADS",
    "LOW_WORKLOADS",
    "get_workload",
    "build_trace",
    "GridRunner",
    "make_prefetcher",
    "PAPER_PREFETCHER_ORDER",
    "experiments",
]
