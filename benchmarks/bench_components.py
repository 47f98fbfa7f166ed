"""Micro-benchmarks of the hot simulator components.

These time the structures every grid simulation leans on — useful for
keeping the pure-Python model fast enough to sweep all 30 benchmarks.
"""

from repro.core.predictor import CbwsConfig, predict_trace
from repro.harness.runner import GridRunner
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.prefetchers.ghb import GhbConfig, GhbPrefetcher
from repro.prefetchers.sms import SmsPrefetcher
from repro.prefetchers.stride import StridePrefetcher


def bench_cache_access_throughput(benchmark):
    hierarchy = CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(name="L1D", size_bytes=4 * 1024, associativity=4),
            l2=CacheConfig(name="L2", size_bytes=128 * 1024, associativity=8),
        )
    )
    demand_access = hierarchy.demand_access_fast
    lines = [(line * 37) & 0x3FFF for line in range(4096)]
    evictions = []

    def run():
        for line in lines:
            demand_access(line, evictions)
            evictions.clear()

    benchmark(run)


def bench_cbws_predictor_throughput(benchmark):
    """Algorithm 1's prediction pass over one fig14-cold trace (stencil,
    budget 0.03, data seed 1), as a CBWS simulation runs it."""
    from repro.core import predictor as predictor_module

    trace = GridRunner(budget_fraction=0.03, seed=1).trace("stencil-default")
    config = CbwsConfig()

    def run():
        predictor_module._last_stream = None  # run the pass every round
        return predict_trace(trace, config, 6)

    stream = benchmark(run)
    assert len(stream) and stream.predictor.stats.table_hits


def _accesses(count):
    """``(pc, line, address, l1_hit)`` tuples: a miss stream of 8 PCs."""
    return [
        (0x400000 + (k % 8) * 16, k * 16, k * 1024, False)
        for k in range(count)
    ]


def bench_stride_throughput(benchmark):
    accesses = _accesses(2048)

    def run():
        prefetcher = StridePrefetcher()
        for access in accesses:
            prefetcher.on_access(*access)

    benchmark(run)


def bench_ghb_pcdc_throughput(benchmark):
    accesses = _accesses(2048)

    def run():
        prefetcher = GhbPrefetcher(GhbConfig(mode="pc"))
        for access in accesses:
            prefetcher.on_access(*access)

    benchmark(run)


def bench_sms_throughput(benchmark):
    accesses = _accesses(2048)

    def run():
        prefetcher = SmsPrefetcher()
        for access in accesses:
            prefetcher.on_access(*access)
        for _, line, _, _ in accesses[::7]:
            prefetcher.on_l1_eviction(line)

    benchmark(run)
