"""Tests for the compiling backend, including interpreter equivalence."""

from array import array

import pytest

from repro.common.errors import WorkloadError
from repro.ir.builder import c, v
from repro.ir.compile import compile_kernel, run_kernel_compiled
from repro.ir.interp import ExecutionLimits, run_kernel
from repro.ir.nodes import (
    ArrayDecl,
    Assign,
    Compute,
    For,
    If,
    Kernel,
    Load,
    Store,
    While,
)
from repro.harness.registry import make_prefetcher
from repro.passes.annotate import annotate_tight_loops
from repro.sim.config import REDUCED_CONFIG
from repro.sim.engine import simulate
from repro.trace.columnar import EventColumns
from repro.workloads import ALL_WORKLOADS, build_trace, get_workload


def assert_traces_equal(a, b):
    """The two traces' instruction totals and five event columns match."""
    assert a.instructions == b.instructions
    for name, left, right in zip(EventColumns.__slots__,
                                 a.columns().arrays(), b.columns().arrays()):
        assert left == right, name


class TestBasicEquivalence:
    def test_straightline(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 8)],
            [Load("a", 0), Store("a", 1, c(5)), Compute(3), Assign("x", 7)],
        )
        assert_traces_equal(run_kernel(kernel), run_kernel_compiled(kernel))

    def test_loops_and_branches(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 64)],
            [
                For("i", 0, 16, [
                    Load("a", v("i"), dst="x"),
                    If(v("x").ge(0), [Store("a", v("i"), v("x") + 1)],
                       [Compute(2)]),
                ], step=2),
            ],
        )
        assert_traces_equal(run_kernel(kernel), run_kernel_compiled(kernel))

    def test_while_loop(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 32)],
            [
                Assign("n", 0),
                While(v("n").lt(10), [
                    Load("a", v("n") * 3 % c(32)),
                    Assign("n", v("n") + 1),
                ]),
            ],
        )
        assert_traces_equal(run_kernel(kernel), run_kernel_compiled(kernel))

    def test_annotated_blocks(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 32)],
            [For("i", 0, 8, [Load("a", v("i") * 4)])],
        )
        annotate_tight_loops(kernel)
        assert_traces_equal(run_kernel(kernel), run_kernel_compiled(kernel))

    def test_data_dependence(self):
        import numpy as np

        kernel = Kernel(
            "k",
            [
                ArrayDecl("idx", 16,
                          init=lambda rng: rng.integers(0, 16, size=16)),
                ArrayDecl("a", 16),
            ],
            [For("i", 0, 16, [
                Load("idx", v("i"), dst="j"),
                Load("a", v("j")),
                Store("a", v("j"), v("j") * 2),
            ])],
        )
        assert_traces_equal(
            run_kernel(kernel, seed=5), run_kernel_compiled(kernel, seed=5)
        )


class TestBudgetEquivalence:
    @pytest.mark.parametrize("budget", [1, 7, 50, 333])
    def test_truncation_matches(self, budget):
        kernel = Kernel(
            "k", [ArrayDecl("a", 4096)],
            [For("i", 0, 64, [
                For("j", 0, 64, [Load("a", v("i") * 64 + v("j"))]),
                Compute(2),
            ])],
        )
        annotate_tight_loops(kernel)
        limits = ExecutionLimits(max_memory_accesses=budget)
        assert_traces_equal(
            run_kernel(kernel, limits=limits),
            run_kernel_compiled(kernel, limits=limits),
        )

    def test_instruction_budget_matches(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 1024)],
            [For("i", 0, 1024, [Load("a", v("i")), Compute(5)])],
        )
        limits = ExecutionLimits(max_instructions=500)
        assert_traces_equal(
            run_kernel(kernel, limits=limits),
            run_kernel_compiled(kernel, limits=limits),
        )


class TestErrorEquivalence:
    def test_out_of_bounds(self):
        kernel = Kernel("k", [ArrayDecl("a", 4)], [Load("a", 99)])
        with pytest.raises(WorkloadError, match="out of range"):
            run_kernel_compiled(kernel)

    def test_runaway_while(self):
        kernel = Kernel(
            "k", [ArrayDecl("a", 4)],
            [While(c(1), [Load("a", 0)], max_iterations=5)],
        )
        with pytest.raises(WorkloadError, match="exceeded"):
            run_kernel_compiled(kernel)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_suite_equivalence(name):
    """The compiled backend reproduces the interpreter bit-for-bit on
    every benchmark kernel (the strongest equivalence check we have)."""
    spec = get_workload(name)
    limits = ExecutionLimits(max_memory_accesses=1200)

    kernel_a = spec.kernel()
    annotate_tight_loops(kernel_a)
    interpreted = run_kernel(kernel_a, seed=11, limits=limits)

    kernel_b = spec.kernel()
    annotate_tight_loops(kernel_b)
    compiled = compile_kernel(kernel_b).run(seed=11, limits=limits)

    assert_traces_equal(interpreted, compiled)


def test_compiled_source_is_inspectable():
    kernel = Kernel("k", [ArrayDecl("a", 4)], [Load("a", 0)])
    compiled = compile_kernel(kernel)
    assert "def _kernel_main(" in compiled.source
    assert "rows_extend((0, ic, " in compiled.source


def test_built_trace_holds_only_columns():
    """A compiled-kernel trace keeps its events as five typed arrays and
    nothing else, also after it was simulated and summarized."""
    trace = build_trace(get_workload("nw"), max_accesses=2000)
    simulate(REDUCED_CONFIG, make_prefetcher("cbws"), trace)
    trace.stats()
    trace.validate()
    assert not hasattr(trace, "__dict__")
    held = [getattr(trace, slot) for slot in type(trace).__slots__]
    assert sorted(type(value).__name__ for value in held) == [
        "EventColumns", "int", "str"]
    assert all(type(column) is array for column in trace.columns().arrays())


def test_generated_source_compiles_once():
    """Every build of a workload lowers to the same source, so a second
    build at another budget and seed reuses the first build's code
    object, and the columns it writes are those of a cold build."""
    from repro.ir.compile import _code

    spec = get_workload("stencil-default")

    def build(budget, seed):
        kernel = spec.kernel()
        annotate_tight_loops(kernel)
        compiled = compile_kernel(kernel)
        limits = ExecutionLimits(max_memory_accesses=budget)
        return compiled, compiled.run(seed=seed, limits=limits)

    _code.cache_clear()
    first, cold = build(900, 0)
    second, other = build(1500, 3)
    assert second._function.__code__ is first._function.__code__
    assert _code.cache_info().hits >= 1
    assert len(other.events) > len(cold.events)
    _, warm = build(900, 0)
    assert warm.columns() == cold.columns()
    assert warm.instructions == cold.instructions
