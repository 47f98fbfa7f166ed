"""Reference interpreter: executes a kernel and emits its trace.

The interpreter models the commit stage of the core: every executed
Load/Store appends a :class:`~repro.trace.events.MemoryAccess` to the
trace, every iteration of an annotated loop is bracketed by
``BLOCK_BEGIN``/``BLOCK_END`` markers, and ``icount`` tracks committed
instructions so the timing model can convert progress to cycles.

Instruction accounting (used for the MPKI denominator and Figure 1):

=============  =======================================================
statement      committed instructions
=============  =======================================================
Assign         1
Load / Store   1 (plus the address arithmetic folded into Compute ops)
Compute(n)     n
If             1 (compare + branch) plus the taken body
For            1 setup, then 2 per iteration (induction update + branch)
While          2 per iteration (condition + branch)
=============  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import WorkloadError
from repro.ir.nodes import (
    Assign,
    BinOp,
    BINOP_EVALUATORS,
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
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess, TraceEvent
from repro.trace.stream import Trace
from repro.trace.synth import AddressSpace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ExecutionLimits:
    """Budget caps that stop a kernel early with a well-formed trace.

    Budgets are checked at loop iteration boundaries, so block markers
    always stay balanced even when a kernel is truncated.

    Attributes:
        max_memory_accesses: stop once this many loads+stores committed.
        max_instructions: stop once this many instructions committed.
    """

    max_memory_accesses: int | None = None
    max_instructions: int | None = None

    def exhausted(self, memory_accesses: int, instructions: int) -> bool:
        """True when either budget has been spent."""
        if self.max_memory_accesses is not None:
            if memory_accesses >= self.max_memory_accesses:
                return True
        if self.max_instructions is not None:
            if instructions >= self.max_instructions:
                return True
        return False


class _BudgetExhausted(Exception):
    """Internal control flow: unwind all loops when the budget is spent."""


class Interpreter:
    """Executes one kernel over concrete data.

    Args:
        kernel: the kernel to run.  Static memory ops are (re)numbered.
        seed: seed for array initializers; fixing it makes data-dependent
            kernels (histo, mcf) fully reproducible.
        limits: optional execution budget.
    """

    def __init__(
        self,
        kernel: Kernel,
        seed: int = 0,
        limits: ExecutionLimits | None = None,
    ) -> None:
        import numpy as np

        number_kernel(kernel)
        self.kernel = kernel
        self.limits = limits or ExecutionLimits()
        self._events: list[TraceEvent] = []
        self._icount = 0
        self._memory_accesses = 0
        self._env: dict[str, int] = {}

        self.address_space = AddressSpace()
        self._data: dict[str, np.ndarray] = {}
        self._base: dict[str, int] = {}
        self._elem_size: dict[str, int] = {}
        self._length: dict[str, int] = {}
        rng = np.random.default_rng(seed)
        for decl in kernel.arrays:
            allocation = self.address_space.allocate(
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
            self._data[decl.name] = contents
            self._base[decl.name] = allocation.base
            self._elem_size[decl.name] = decl.element_size
            self._length[decl.name] = decl.length

    # -- public API --------------------------------------------------------

    def run(self) -> Trace:
        """Execute the kernel body and return the resulting trace."""
        try:
            self._exec_body(self.kernel.body)
        except _BudgetExhausted:
            pass
        trace = Trace(self.kernel.name, self._events, self._icount)
        return trace

    # -- statement execution ------------------------------------------------

    def _exec_body(self, body: Sequence[Statement]) -> None:
        for statement in body:
            self._exec(statement)

    def _exec(self, statement: Statement) -> None:
        if isinstance(statement, Load):
            self._exec_load(statement)
        elif isinstance(statement, Store):
            self._exec_store(statement)
        elif isinstance(statement, Compute):
            self._icount += statement.count
        elif isinstance(statement, Assign):
            self._env[statement.dst] = self._eval(statement.expr)
            self._icount += 1
        elif isinstance(statement, If):
            self._icount += 1
            if self._eval(statement.cond):
                self._exec_body(statement.then_body)
            else:
                self._exec_body(statement.else_body)
        elif isinstance(statement, For):
            self._exec_for(statement)
        elif isinstance(statement, While):
            self._exec_while(statement)
        else:
            raise WorkloadError(
                f"unknown statement node {type(statement).__name__}"
            )

    def _exec_load(self, node: Load) -> None:
        index = self._eval(node.index)
        self._check_bounds(node.array, index)
        address = self._base[node.array] + index * self._elem_size[node.array]
        self._events.append(MemoryAccess(self._icount, node.pc, address, False))
        self._icount += 1
        self._memory_accesses += 1
        if node.dst is not None:
            self._env[node.dst] = int(self._data[node.array][index])

    def _exec_store(self, node: Store) -> None:
        index = self._eval(node.index)
        self._check_bounds(node.array, index)
        address = self._base[node.array] + index * self._elem_size[node.array]
        self._events.append(MemoryAccess(self._icount, node.pc, address, True))
        self._icount += 1
        self._memory_accesses += 1
        self._data[node.array][index] = self._eval(node.value)

    def _exec_for(self, node: For) -> None:
        start = self._eval(node.start)
        stop = self._eval(node.stop)
        self._icount += 1  # induction variable setup
        annotated = node.block_id is not None
        for value in range(start, stop, node.step):
            self._check_budget()
            self._env[node.var] = value
            self._icount += 2  # induction update + back-edge branch
            if annotated:
                self._events.append(BlockBegin(self._icount, node.block_id))
                self._exec_body(node.body)
                self._events.append(BlockEnd(self._icount, node.block_id))
            else:
                self._exec_body(node.body)

    def _exec_while(self, node: While) -> None:
        annotated = node.block_id is not None
        iterations = 0
        while True:
            self._icount += 2  # condition evaluation + branch
            if not self._eval(node.cond):
                break
            self._check_budget()
            iterations += 1
            if iterations > node.max_iterations:
                raise WorkloadError(
                    f"kernel '{self.kernel.name}': While exceeded "
                    f"{node.max_iterations} iterations"
                )
            if annotated:
                self._events.append(BlockBegin(self._icount, node.block_id))
                self._exec_body(node.body)
                self._events.append(BlockEnd(self._icount, node.block_id))
            else:
                self._exec_body(node.body)

    def _check_budget(self) -> None:
        if self.limits.exhausted(self._memory_accesses, self._icount):
            raise _BudgetExhausted()

    def _check_bounds(self, array: str, index: int) -> None:
        if not 0 <= index < self._length[array]:
            raise WorkloadError(
                f"kernel '{self.kernel.name}': array '{array}' index {index} "
                f"out of range [0, {self._length[array]})"
            )

    # -- expression evaluation ----------------------------------------------

    def _eval(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return self._env[expr.name]
            except KeyError:
                raise WorkloadError(
                    f"kernel '{self.kernel.name}': variable '{expr.name}' "
                    "read before assignment"
                ) from None
        if isinstance(expr, BinOp):
            return BINOP_EVALUATORS[expr.op](
                self._eval(expr.lhs), self._eval(expr.rhs)
            )
        raise WorkloadError(f"unknown expression node {type(expr).__name__}")

    # -- introspection helpers (used by tests and examples) ------------------

    def array_values(self, name: str) -> np.ndarray:
        """Current contents of a kernel array (post-run inspection)."""
        try:
            return self._data[name]
        except KeyError:
            raise WorkloadError(f"unknown array '{name}'") from None


def run_kernel(
    kernel: Kernel,
    seed: int = 0,
    limits: ExecutionLimits | None = None,
) -> Trace:
    """Convenience wrapper: interpret ``kernel`` and return its trace."""
    return Interpreter(kernel, seed=seed, limits=limits).run()
