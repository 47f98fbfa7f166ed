"""Compiling backend: lowers a kernel to a Python function.

The interpreter (:mod:`repro.ir.interp`) is the reference semantics; it
walks the IR tree for every executed statement.  This module instead
*lowers* the kernel once into Python source — loops become ``for``/
``while`` statements, expressions become Python expressions, loads,
stores and markers extend one flat list with their column row — and
executes the compiled function, then slices the list into
:class:`~repro.trace.columnar.EventColumns` (no object per event).  The
columns are bit-identical to the interpreter's trace (the test suite
asserts this across the whole workload suite) at a fraction of the
cost, which is what makes full-budget 30-benchmark sweeps practical.

Usage::

    compiled = compile_kernel(kernel)
    trace = compiled.run(seed=0, limits=ExecutionLimits(...))
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType

from repro.common.errors import WorkloadError
from repro.ir.interp import ExecutionLimits
from repro.ir.nodes import (
    Assign,
    BinOp,
    Compute,
    Const,
    Expr,
    For,
    If,
    Kernel,
    Load,
    Statement,
    Store,
    Var,
    While,
)
from repro.ir.validate import number_kernel
from repro.trace.columnar import EventColumns
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS
from repro.trace.stream import Trace
from repro.trace.synth import AddressSpace


class _Stop(Exception):
    """Raised inside compiled code when the execution budget is spent."""


#: Guarded arithmetic matching BINOP_EVALUATORS' division-by-zero rules.
def _fdiv(a: int, b: int) -> int:
    return a // b if b else 0


def _fmod(a: int, b: int) -> int:
    return a % b if b else 0


_BINOP_TEMPLATES = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "//": "_fdiv({}, {})",
    "%": "_fmod({}, {})",
    "&": "({} & {})",
    "|": "({} | {})",
    "^": "({} ^ {})",
    "<<": "({} << {})",
    ">>": "({} >> {})",
    "<": "int({} < {})",
    "<=": "int({} <= {})",
    ">": "int({} > {})",
    ">=": "int({} >= {})",
    "==": "int({} == {})",
    "!=": "int({} != {})",
    "min": "min({}, {})",
    "max": "max({}, {})",
}


class _CodeGenerator:
    """Lowers one kernel body to Python source lines."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.lines: list[str] = []
        self._temp = 0

    # -- helpers -------------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def fresh(self, prefix: str) -> str:
        self._temp += 1
        return f"_{prefix}{self._temp}"

    def expr(self, node: Expr) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Var):
            return f"v_{node.name}"
        if isinstance(node, BinOp):
            return _BINOP_TEMPLATES[node.op].format(
                self.expr(node.lhs), self.expr(node.rhs)
            )
        raise WorkloadError(f"unknown expression node {type(node).__name__}")

    # -- statements ----------------------------------------------------------

    def body(self, statements: list[Statement], depth: int) -> None:
        for statement in statements:
            self.statement(statement, depth)

    def statement(self, node: Statement, depth: int) -> None:
        if isinstance(node, Load):
            self._memory_op(node, depth, is_store=False)
        elif isinstance(node, Store):
            self._memory_op(node, depth, is_store=True)
        elif isinstance(node, Compute):
            if node.count:
                self.emit(depth, f"ic += {node.count}")
        elif isinstance(node, Assign):
            self.emit(depth, f"v_{node.dst} = {self.expr(node.expr)}")
            self.emit(depth, "ic += 1")
        elif isinstance(node, If):
            self.emit(depth, "ic += 1")
            self.emit(depth, f"if {self.expr(node.cond)}:")
            if node.then_body:
                self.body(node.then_body, depth + 1)
            else:
                self.emit(depth + 1, "pass")
            if node.else_body:
                self.emit(depth, "else:")
                self.body(node.else_body, depth + 1)
        elif isinstance(node, For):
            self._for(node, depth)
        elif isinstance(node, While):
            self._while(node, depth)
        else:
            raise WorkloadError(
                f"unknown statement node {type(node).__name__}"
            )

    def _memory_op(self, node: Load | Store, depth: int, is_store: bool) -> None:
        index = self.fresh("i")
        name = node.array
        self.emit(depth, f"{index} = {self.expr(node.index)}")
        self.emit(depth, f"if not 0 <= {index} < len_{name}:")
        self.emit(
            depth + 1,
            f"raise WorkloadError(_oob_message({index}, {name!r}, len_{name}))",
        )
        self.emit(
            depth,
            f"rows_extend(({MEMORY_ACCESS}, ic, {node.pc}, "
            f"base_{name} + {index} * es_{name}, {int(is_store)}))",
        )
        self.emit(depth, "ic += 1")
        self.emit(depth, "mem += 1")
        if is_store:
            self.emit(
                depth, f"data_{name}[{index}] = {self.expr(node.value)}"
            )
        elif node.dst is not None:
            self.emit(depth, f"v_{node.dst} = int(data_{name}[{index}])")

    def _budget_check(self, depth: int) -> None:
        # The current icount travels with the exception so the truncated
        # trace reports exactly the instructions the interpreter would.
        self.emit(depth, "if mem >= max_mem or ic >= max_ic:")
        self.emit(depth + 1, "raise _Stop(ic)")

    def _for(self, node: For, depth: int) -> None:
        start = self.fresh("s")
        stop = self.fresh("e")
        self.emit(depth, f"{start} = {self.expr(node.start)}")
        self.emit(depth, f"{stop} = {self.expr(node.stop)}")
        self.emit(depth, "ic += 1")
        self.emit(
            depth,
            f"for v_{node.var} in range({start}, {stop}, {node.step}):",
        )
        inner = depth + 1
        self._budget_check(inner)
        self.emit(inner, "ic += 2")
        self._block_body(node, inner)

    def _block_body(self, node: For | While, depth: int) -> None:
        if node.block_id is None:
            self.body(node.body, depth)
            return
        self.emit(depth, f"rows_extend(({BLOCK_BEGIN}, ic, 0, {node.block_id}, 0))")
        self.body(node.body, depth)
        self.emit(depth, f"rows_extend(({BLOCK_END}, ic, 0, {node.block_id}, 0))")

    def _while(self, node: While, depth: int) -> None:
        counter = self.fresh("n")
        self.emit(depth, f"{counter} = 0")
        self.emit(depth, "while True:")
        inner = depth + 1
        self.emit(inner, "ic += 2")
        self.emit(inner, f"if not ({self.expr(node.cond)}):")
        self.emit(inner + 1, "break")
        self._budget_check(inner)
        self.emit(inner, f"{counter} += 1")
        self.emit(inner, f"if {counter} > {node.max_iterations}:")
        self.emit(
            inner + 1,
            f"raise WorkloadError(_runaway_message({node.max_iterations}))",
        )
        self._block_body(node, inner)


@lru_cache(maxsize=128)
def _code(source: str, filename: str) -> CodeType:
    """The code object of one generated source, compiled once per process.

    A workload lowers to the same source at every budget and seed, so
    only the first build of each pays for ``compile()``.
    """
    return compile(source, filename, "exec")


class CompiledKernel:
    """A kernel lowered to an executable Python function."""

    def __init__(self, kernel: Kernel) -> None:
        number_kernel(kernel)
        self.kernel = kernel
        generator = _CodeGenerator(kernel)
        generator.body(kernel.body, 1)
        if not generator.lines:
            generator.emit(1, "pass")

        array_params = ", ".join(
            f"data_{decl.name}, base_{decl.name}, es_{decl.name}, "
            f"len_{decl.name}"
            for decl in kernel.arrays
        )
        header = (
            f"def _kernel_main(rows_extend, max_mem, max_ic, "
            f"{array_params}):\n"
            "    ic = 0\n"
            "    mem = 0\n"
        )
        footer = "\n    return ic\n"
        self.source = header + "\n".join(generator.lines) + footer

        namespace: dict[str, object] = {
            "WorkloadError": WorkloadError,
            "_Stop": _Stop,
            "_fdiv": _fdiv,
            "_fmod": _fmod,
            "_oob_message": self._oob_message,
            "_runaway_message": self._runaway_message,
        }
        exec(_code(self.source, f"<compiled:{kernel.name}>"), namespace)
        self._function = namespace["_kernel_main"]

    def _oob_message(self, index: int, array: str, length: int) -> str:
        return (
            f"kernel '{self.kernel.name}': array '{array}' index {index} "
            f"out of range [0, {length})"
        )

    def _runaway_message(self, limit: int) -> str:
        return (
            f"kernel '{self.kernel.name}': While exceeded {limit} iterations"
        )

    def run(
        self,
        seed: int = 0,
        limits: ExecutionLimits | None = None,
    ) -> Trace:
        """Execute the compiled kernel; same contract as the interpreter."""
        import numpy as np

        limits = limits or ExecutionLimits()
        address_space = AddressSpace()
        rng = np.random.default_rng(seed)
        arguments: list[object] = []
        for decl in self.kernel.arrays:
            allocation = address_space.allocate(
                decl.name, decl.length, decl.element_size
            )
            if decl.init is not None:
                contents = np.asarray(decl.init(rng), dtype=np.int64)
                if contents.shape != (decl.length,):
                    raise WorkloadError(
                        f"array '{decl.name}': initializer returned shape "
                        f"{contents.shape}, expected ({decl.length},)"
                    )
            else:
                contents = np.zeros(decl.length, dtype=np.int64)
            arguments.extend(
                (contents, allocation.base, decl.element_size, decl.length)
            )

        rows: list[int] = []
        max_mem = (
            limits.max_memory_accesses
            if limits.max_memory_accesses is not None
            else float("inf")
        )
        max_ic = (
            limits.max_instructions
            if limits.max_instructions is not None
            else float("inf")
        )
        try:
            instructions = self._function(
                rows.extend, max_mem, max_ic, *arguments
            )
        except _Stop as stop:
            # A _Stop fires only at a loop-iteration boundary, before any
            # BLOCK_BEGIN, so the event stream is already well-formed.
            instructions = stop.args[0]
        return Trace(self.kernel.name, EventColumns(rows), instructions)


def compile_kernel(kernel: Kernel) -> CompiledKernel:
    """Lower ``kernel`` to Python and return the executable wrapper."""
    return CompiledKernel(kernel)


def run_kernel_compiled(
    kernel: Kernel,
    seed: int = 0,
    limits: ExecutionLimits | None = None,
) -> Trace:
    """Convenience wrapper mirroring :func:`repro.ir.interp.run_kernel`."""
    return compile_kernel(kernel).run(seed=seed, limits=limits)
