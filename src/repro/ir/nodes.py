"""IR node definitions.

Expressions are pure (no memory side effects) and evaluate to Python
integers.  Memory traffic happens only through :class:`Load` and
:class:`Store` statements, which is what lets the interpreter emit an
exact commit-order access trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for integer-valued expressions.

    Operator overloads build :class:`BinOp` trees so kernels read like the
    C loops they model, e.g. ``v("i") + nx * (v("j") + ny * v("k"))``.
    """

    __slots__ = ()

    def __add__(self, other: "Expr | int") -> "BinOp":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: int) -> "BinOp":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: "Expr | int") -> "BinOp":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: int) -> "BinOp":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: "Expr | int") -> "BinOp":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: int) -> "BinOp":
        return BinOp("*", _wrap(other), self)

    def __floordiv__(self, other: "Expr | int") -> "BinOp":
        return BinOp("//", self, _wrap(other))

    def __mod__(self, other: "Expr | int") -> "BinOp":
        return BinOp("%", self, _wrap(other))

    def __and__(self, other: "Expr | int") -> "BinOp":
        return BinOp("&", self, _wrap(other))

    def __or__(self, other: "Expr | int") -> "BinOp":
        return BinOp("|", self, _wrap(other))

    def __xor__(self, other: "Expr | int") -> "BinOp":
        return BinOp("^", self, _wrap(other))

    def __lshift__(self, other: "Expr | int") -> "BinOp":
        return BinOp("<<", self, _wrap(other))

    def __rshift__(self, other: "Expr | int") -> "BinOp":
        return BinOp(">>", self, _wrap(other))

    # Comparisons produce 0/1 integers, mirroring C semantics.
    def lt(self, other: "Expr | int") -> "BinOp":
        return BinOp("<", self, _wrap(other))

    def gt(self, other: "Expr | int") -> "BinOp":
        return BinOp(">", self, _wrap(other))

    def ge(self, other: "Expr | int") -> "BinOp":
        return BinOp(">=", self, _wrap(other))

    def eq(self, other: "Expr | int") -> "BinOp":
        return BinOp("==", self, _wrap(other))

    def ne(self, other: "Expr | int") -> "BinOp":
        return BinOp("!=", self, _wrap(other))


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __repr__(self) -> str:
        return f"Const({self.value})"


class Var(Expr):
    """A reference to a scalar variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


#: Operators supported by :class:`BinOp`, mapped to their evaluators.
BINOP_EVALUATORS: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "min": min,
    "max": max,
}


class BinOp(Expr):
    """A binary operation over two sub-expressions."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in BINOP_EVALUATORS:
            raise ValidationError(f"unsupported operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.lhs!r}, {self.rhs!r})"


def _wrap(value: "Expr | int") -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(value)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Statement:
    """Base class for IR statements."""

    __slots__ = ()


class Assign(Statement):
    """``dst = expr`` — scalar assignment; costs one instruction."""

    __slots__ = ("dst", "expr")

    def __init__(self, dst: str, expr: Expr | int) -> None:
        self.dst = dst
        self.expr = _wrap(expr)


class Load(Statement):
    """``dst = array[index]`` — a committed load.

    The loaded value is bound to ``dst`` when given, which is how kernels
    express data-dependent access patterns (histogram indices, pointer
    chasing).  Each static Load is assigned a unique ``pc`` by
    :func:`repro.ir.validate.number_kernel`.
    """

    __slots__ = ("array", "index", "dst", "pc")

    def __init__(self, array: str, index: Expr | int, dst: str | None = None) -> None:
        self.array = array
        self.index = _wrap(index)
        self.dst = dst
        self.pc: int = -1


class Store(Statement):
    """``array[index] = value`` — a committed store.

    ``value`` defaults to zero; it only matters when a later Load reads
    the location back (e.g. the histogram increment in histo).
    """

    __slots__ = ("array", "index", "value", "pc")

    def __init__(
        self, array: str, index: Expr | int, value: Expr | int = 0
    ) -> None:
        self.array = array
        self.index = _wrap(index)
        self.value = _wrap(value)
        self.pc: int = -1


class Compute(Statement):
    """``count`` ALU instructions with no memory traffic.

    Used to model the arithmetic between memory operations, which sets the
    memory intensity (MPKI denominator) of a kernel.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 1) -> None:
        if count < 0:
            raise ValidationError(f"Compute count must be non-negative: {count}")
        self.count = count


class If(Statement):
    """Conditional execution; the compare/branch costs one instruction."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: Expr,
        then_body: Sequence[Statement],
        else_body: Sequence[Statement] = (),
    ) -> None:
        self.cond = cond
        self.then_body = list(then_body)
        self.else_body = list(else_body)


class For(Statement):
    """A counted loop: ``for var in range(start, stop, step)``.

    ``start``/``stop`` may reference outer loop variables.  ``block_id``
    is ``None`` until the annotation pass marks the loop as a tight
    innermost code block, after which the interpreter brackets every
    iteration with ``BLOCK_BEGIN(block_id)`` / ``BLOCK_END(block_id)``.
    """

    __slots__ = ("var", "start", "stop", "step", "body", "block_id", "no_block")

    def __init__(
        self,
        var: str,
        start: Expr | int,
        stop: Expr | int,
        body: Sequence[Statement],
        step: int = 1,
        no_block: bool = False,
    ) -> None:
        if step == 0:
            raise ValidationError("For step must be non-zero")
        self.var = var
        self.start = _wrap(start)
        self.stop = _wrap(stop)
        self.step = step
        self.body = list(body)
        self.block_id: int | None = None
        #: Pragma telling the annotation pass to skip this loop, modelling
        #: code the compiler declines to tag (e.g. loops with calls).
        self.no_block = no_block


class While(Statement):
    """A condition-controlled loop, used for pointer chasing.

    ``max_iterations`` is a safety valve against non-terminating kernels;
    exceeding it raises at runtime rather than hanging the interpreter.
    """

    __slots__ = ("cond", "body", "block_id", "no_block", "max_iterations")

    def __init__(
        self,
        cond: Expr,
        body: Sequence[Statement],
        no_block: bool = False,
        max_iterations: int = 100_000_000,
    ) -> None:
        self.cond = cond
        self.body = list(body)
        self.block_id: int | None = None
        self.no_block = no_block
        self.max_iterations = max_iterations


LoopStatement = (For, While)


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


class ArrayDecl:
    """Declaration of one kernel array.

    Attributes:
        name: array identifier used by Load/Store statements.
        length: number of elements.
        element_size: bytes per element (drives spatial locality).
        init: optional callable ``(rng) -> np.ndarray`` producing initial
            contents (int64, length ``length``).  Defaults to zeros.
    """

    __slots__ = ("name", "length", "element_size", "init")

    def __init__(
        self,
        name: str,
        length: int,
        element_size: int = 8,
        init: Callable[[np.random.Generator], np.ndarray] | None = None,
    ) -> None:
        if length <= 0:
            raise ValidationError(f"array '{name}': length must be positive")
        if element_size <= 0:
            raise ValidationError(f"array '{name}': element size must be positive")
        self.name = name
        self.length = length
        self.element_size = element_size
        self.init = init


class Kernel:
    """A complete workload kernel: arrays plus a loop-structured body."""

    def __init__(
        self,
        name: str,
        arrays: Sequence[ArrayDecl],
        body: Sequence[Statement],
    ) -> None:
        self.name = name
        self.arrays = list(arrays)
        self.body = list(body)
        names = [decl.name for decl in self.arrays]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValidationError(
                f"kernel '{name}': duplicate array declarations {sorted(duplicates)}"
            )

    def __repr__(self) -> str:
        return (
            f"Kernel(name={self.name!r}, arrays={len(self.arrays)}, "
            f"statements={len(self.body)})"
        )
