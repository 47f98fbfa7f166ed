"""Per-benchmark character tests.

Each memory-intensive kernel was designed to reproduce the structural
property that drives its benchmark's result in the paper.  These tests
pin those properties directly on the traces, so a kernel edit that
silently loses its mechanism fails here rather than shifting a figure.
"""

import pytest

from repro.analysis.differentials import (
    differential_distribution,
    extract_cbws_sequences,
)
from repro.analysis.workingsets import working_set_distribution
from repro.core.predictor import CbwsConfig, predict_trace
from repro.harness.runner import GridRunner


@pytest.fixture(scope="module")
def runner():
    return GridRunner(budget_fraction=0.12)


def table_hit_rate(trace) -> float:
    """Run the CBWS predictor over a trace; return its hit rate."""
    return predict_trace(trace, CbwsConfig(), 6).predictor.stats.hit_rate


class TestStencil:
    """Figure 2-4: plane-strided innermost loop, constant differentials."""

    def test_constant_differential(self, runner):
        sequences = extract_cbws_sequences(runner.trace("stencil-default"))
        vectors = sequences[min(sequences)][1:20]
        deltas = {
            tuple(b[i] - a[i] for i in range(min(len(a), len(b))))
            for a, b in zip(vectors, vectors[1:])
        }
        assert len(deltas) == 1

    def test_strides_exceed_sms_region(self, runner):
        """The plane stride (16 lines at reduced scale) hops half an SMS
        region per iteration — the paper's structural critique of SMS."""
        sequences = extract_cbws_sequences(runner.trace("stencil-default"))
        vectors = sequences[min(sequences)]
        stride = vectors[2][0] - vectors[1][0]
        assert stride >= 16

    def test_high_predictability(self, runner):
        assert table_hit_rate(runner.trace("stencil-default")) > 0.9


class TestSgemm:
    """Column walk: one full row stride per inner iteration."""

    def test_b_column_stride(self, runner):
        sequences = extract_cbws_sequences(runner.trace("sgemm-medium"))
        vectors = sequences[min(sequences)][1:10]
        b_lines = [cbws[-1] for cbws in vectors if len(cbws) >= 2]
        strides = {b - a for a, b in zip(b_lines, b_lines[1:])}
        assert strides == {16}  # 256 floats per row = 16 lines


class TestBzip2:
    """Suffix windows overflow the 16-line CBWS buffer."""

    def test_blocks_exceed_buffer(self, runner):
        dist = working_set_distribution(runner.trace("401.bzip2-source"))
        assert dist.fraction_within(16) < 0.05
        assert dist.max_size >= 24

    def test_windows_fit_one_sms_region_span(self, runner):
        dist = working_set_distribution(runner.trace("401.bzip2-source"))
        assert dist.max_size <= 32


class TestHisto:
    """Figure 16: data-dependent bin indices."""

    def test_bin_stream_is_unpredictable(self, runner):
        assert table_hit_rate(runner.trace("histo-large")) < 0.35

    def test_image_stream_is_sequential(self, runner):
        trace = runner.trace("histo-large")
        loads = [e for e in trace.memory_events() if not e.is_write]
        img_pc = loads[0].pc
        img_lines = [e.line for e in loads if e.pc == img_pc][:200]
        deltas = {b - a for a, b in zip(img_lines, img_lines[1:])}
        assert deltas <= {0, 1}


class TestMcf:
    """Pointer chase over a permutation cycle."""

    def test_chase_has_no_repeating_differential(self, runner):
        dist = differential_distribution(runner.trace("429.mcf-ref"))
        # The chase contributes thousands of distinct one-off vectors.
        assert dist.distinct_vectors > 0.3 * dist.iterations


class TestFftAndStreamcluster:
    """Section VII-A: too many distinct differentials for 16 entries."""

    def test_streamcluster_table_thrash(self, runner):
        assert table_hit_rate(runner.trace("streamcluster-simlarge")) < 0.1

    def test_fft_less_predictable_than_stencil(self, runner):
        fft = table_hit_rate(runner.trace("fft-simlarge"))
        stencil = table_hit_rate(runner.trace("stencil-default"))
        assert fft < stencil - 0.2

    def test_streamcluster_distribution_is_diffuse(self, runner):
        diffuse = differential_distribution(
            runner.trace("streamcluster-simlarge")
        )
        assert diffuse.coverage_at(0.05) < 0.5


class TestSoplex:
    """Branch divergence changes the CBWS length between iterations."""

    def test_divergent_block_sizes(self, runner):
        dist = working_set_distribution(runner.trace("450.soplex-ref"))
        assert len(dist.size_histogram) >= 2


class TestLibquantum:
    """Pure unit-stride streaming."""

    def test_single_line_blocks(self, runner):
        dist = working_set_distribution(runner.trace("462.libquantum-ref"))
        assert dist.mean_size < 1.5


class TestNw:
    """Wavefront diagonal: constant multi-line stride."""

    def test_diagonal_stride_spans_regions(self, runner):
        sequences = extract_cbws_sequences(runner.trace("nw"))
        # Find a long diagonal (late block instances) and check strides.
        longest = max(sequences.values(), key=len)
        tail = longest[len(longest) // 2 : len(longest) // 2 + 8]
        strides = [b[0] - a[0] for a, b in zip(tail, tail[1:])]
        # cols-1 elements = 1020 bytes: 15 or 16 lines per step.
        assert strides
        assert min(strides) >= 8
        assert max(strides) - min(strides) <= 1


class TestLbm:
    """Flag-divergent cell paths."""

    def test_multiple_working_set_shapes(self, runner):
        dist = working_set_distribution(runner.trace("lbm-long"))
        assert len(dist.size_histogram) >= 3


class TestMilc:
    """Two-site gathers at constant strides: few differentials."""

    def test_few_distinct_differentials(self, runner):
        dist = differential_distribution(runner.trace("433.milc-su3imp"))
        assert dist.distinct_vectors <= 8


class TestLowGroupCharacters:
    """Spot-checks that the low-MPKI kernels keep their designed
    cache-friendliness mechanisms."""

    def test_mxm_fits_the_l2(self, runner):
        from conftest import hit_ratio_at
        from repro.analysis.reuse import reuse_profile

        profile = reuse_profile(runner.trace("mxm-linpack"))
        assert hit_ratio_at(profile, 2048) > 0.85

    def test_sjeng_probes_are_sparse(self, runner):
        """One transposition-table probe per position: the miss source
        is a small fraction of all accesses."""
        trace = runner.trace("458.sjeng-ref")
        result = GridRunner(budget_fraction=0.12).run_one(
            "458.sjeng-ref", "no-prefetch"
        )
        assert result.llc_misses < 0.1 * result.demand_accesses

    def test_sad_window_reuse(self, runner):
        """The reference window is revisited per candidate, so most
        accesses hit without any prefetching."""
        result = GridRunner(budget_fraction=0.12).run_one(
            "sad-base-large", "no-prefetch"
        )
        # Short-budget traces are cold-start dominated; 20% bounds it.
        assert result.llc_misses < 0.2 * result.demand_accesses

    def test_freqmine_walks_stay_short(self, runner):
        """Heap-layout parent walks have log depth: block instances are
        bounded and working sets tiny."""
        from repro.analysis.workingsets import working_set_distribution

        dist = working_set_distribution(runner.trace("freqmine-simlarge"))
        assert dist.max_size <= 4
