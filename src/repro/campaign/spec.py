"""The sweep-spec language: axes, combinators, constraints, refinement.

A campaign spec is a small declarative document (TOML or JSON) that
names the design space to sweep::

    version = 1
    name = "history-sensitivity"

    [base]
    workloads = ["nw", "stencil-default"]
    prefetchers = ["sms", "cbws"]
    budget_fraction = 0.05

    [[axes]]
    name = "cbws.table_entries"
    log2_range = [1, 64]          # 1, 2, 4, ..., 64

    [[axes]]
    name = "prefetch.issue_interval"
    values = [2, 4, 8, 16]

    [[constraints]]
    expr = "is_pow2(prefetch.issue_interval)"

    [refine]
    metric = "ipc"
    axes = ["cbws.table_entries"]
    competitors = ["cbws", "sms"]
    max_cells = 64

Axes name *parameter paths* (see :data:`repro.campaign.cells
.KNOWN_PARAMS`) and carry exactly one value form: an explicit ``values``
list, an inclusive arithmetic ``range = [start, stop, step]``, or a
``log2_range = [lo, hi]`` of powers of two.  Axes combine by
cross-product unless marked ``combine = "zip"`` — all zip axes advance
in lockstep (equal lengths required) and the zipped tuple then crosses
with the remaining axes.

Constraints are boolean expressions over axis names and base parameters,
evaluated per candidate cell *before* dedup; candidates failing any
constraint are pruned.  The evaluator is a restricted AST walk —
comparisons, arithmetic, boolean operators, and a tiny builtin
whitelist (``min``, ``max``, ``abs``, ``is_pow2``) — never ``eval``.
A spec whose constraints prune *every* cell is an error, not an empty
campaign.

Specs are versioned (:data:`SPEC_VERSION`); the parser rejects versions
it does not speak.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.common.bitops import is_power_of_two
from repro.common.errors import SpecError

#: Version of the sweep-spec document layout.
SPEC_VERSION = 1

#: Scalar types an axis may take.
Scalar = "int | float | str"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a path plus its ordered value list.

    Attributes:
        name: parameter path (e.g. ``cbws.table_entries``, ``l2_kb``).
        values: the expanded, ordered scalar values.
        combine: ``"cross"`` (default) or ``"zip"``.
        spacing: ``"linear"`` or ``"log2"`` — how refinement midpoints
            are computed on this axis.
    """

    name: str
    values: tuple[Any, ...]
    combine: str = "cross"
    spacing: str = "linear"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "values": list(self.values),
            "combine": self.combine,
            "spacing": self.spacing,
        }


def _expand_values(name: str, body: Mapping[str, Any]) -> tuple[tuple, str]:
    """The (values, spacing) of one axis declaration."""
    forms = [key for key in ("values", "range", "log2_range") if key in body]
    _require(
        len(forms) == 1,
        f"axis {name!r} must declare exactly one of values / range / "
        f"log2_range, got {forms or 'none'}",
    )
    form = forms[0]
    raw = body[form]
    _require(isinstance(raw, Sequence) and not isinstance(raw, str),
             f"axis {name!r}: {form} must be a list")
    if form == "values":
        values = tuple(raw)
        _require(len(values) > 0, f"axis {name!r} has no values")
        _require(
            all(isinstance(v, (int, float, str))
                and not isinstance(v, bool) for v in values),
            f"axis {name!r}: values must be numbers or strings",
        )
        _require(len(set(values)) == len(values),
                 f"axis {name!r} lists duplicate values")
        return values, "linear"
    if form == "range":
        _require(len(raw) == 3, f"axis {name!r}: range wants [start, stop, "
                                f"step], got {list(raw)}")
        start, stop, step = raw
        _require(all(_is_number(v) for v in raw),
                 f"axis {name!r}: range bounds must be numbers")
        _require(step > 0, f"axis {name!r}: range step must be positive")
        _require(stop >= start, f"axis {name!r}: range stop < start")
        values = []
        value = start
        while value <= stop + (1e-9 if isinstance(step, float) else 0):
            values.append(value)
            value = value + step
        _require(len(values) > 0, f"axis {name!r} has no values")
        return tuple(values), "linear"
    # log2_range
    _require(len(raw) == 2,
             f"axis {name!r}: log2_range wants [lo, hi], got {list(raw)}")
    lo, hi = raw
    _require(_is_int(lo) and _is_int(hi),
             f"axis {name!r}: log2_range bounds must be integers")
    _require(lo > 0 and hi >= lo,
             f"axis {name!r}: log2_range wants 0 < lo <= hi")
    _require(is_power_of_two(lo) and is_power_of_two(hi),
             f"axis {name!r}: log2_range bounds must be powers of two")
    values = []
    value = lo
    while value <= hi:
        values.append(value)
        value *= 2
    return tuple(values), "log2"


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

_ALLOWED_FUNCTIONS = {
    "min": min,
    "max": max,
    "abs": abs,
    "is_pow2": is_power_of_two,
}

_ALLOWED_NODES = (
    ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not,
    ast.USub, ast.UAdd, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.FloorDiv, ast.Mod, ast.Compare, ast.Eq, ast.NotEq,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn, ast.Constant,
    ast.Name, ast.Load, ast.Attribute, ast.Call, ast.Tuple, ast.List,
)


@dataclass(frozen=True)
class Constraint:
    """One boolean predicate over a candidate cell's parameters."""

    expr: str
    _tree: ast.Expression = field(repr=False, compare=False, hash=False,
                                  default=None)  # type: ignore[assignment]

    @classmethod
    def parse(cls, expr: str) -> "Constraint":
        _require(isinstance(expr, str) and bool(expr.strip()),
                 "constraint expr must be a non-empty string")
        try:
            tree = ast.parse(expr, mode="eval")
        except (SyntaxError, RecursionError) as error:  # or nested too deeply
            raise SpecError(
                f"constraint {expr!r} is not a valid expression: {error}"
            ) from None
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise SpecError(
                    f"constraint {expr!r} uses a disallowed construct "
                    f"({type(node).__name__}); only comparisons, "
                    "arithmetic, boolean operators, and "
                    f"{sorted(_ALLOWED_FUNCTIONS)} are supported"
                )
            if isinstance(node, ast.Call):
                callee = node.func
                if (not isinstance(callee, ast.Name)
                        or callee.id not in _ALLOWED_FUNCTIONS
                        or node.keywords):
                    raise SpecError(
                        f"constraint {expr!r} calls a disallowed function; "
                        f"only {sorted(_ALLOWED_FUNCTIONS)} may be called"
                    )
        return cls(expr=expr, _tree=tree)

    def evaluate(self, params: Mapping[str, Any]) -> bool:
        """Whether the predicate holds for one candidate cell.

        An expression that fails on the cell's values (``l1_kb / 0``,
        ``min(l1_kb)``) is a :class:`SpecError` naming the expression.
        """
        try:
            return bool(self._eval(self._tree.body, params))
        except (ArithmeticError, TypeError, ValueError, RecursionError) as error:
            raise SpecError(
                f"constraint {self.expr!r} cannot be evaluated: {error}"
            ) from None

    def _eval(self, node: ast.AST, params: Mapping[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, (ast.Name, ast.Attribute)):
            path = _dotted_path(node)
            if path in _ALLOWED_FUNCTIONS:
                return _ALLOWED_FUNCTIONS[path]
            if path not in params:
                known = ", ".join(sorted(params))
                raise SpecError(
                    f"constraint {self.expr!r} names unknown parameter "
                    f"{path!r}; known: {known}"
                )
            return params[path]
        if isinstance(node, ast.BoolOp):
            values = (self._eval(v, params) for v in node.values)
            if isinstance(node.op, ast.And):
                return all(values)
            return any(values)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, params)
            if isinstance(node.op, ast.Not):
                return not operand
            if isinstance(node.op, ast.USub):
                return -operand
            return +operand
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, params)
            right = self._eval(node.right, params)
            if not all(isinstance(x, (int, float)) for x in (left, right)):
                raise SpecError(  # ``"x" * l2_kb`` could ask for gigabytes
                    f"constraint {self.expr!r}: arithmetic on {left!r} and "
                    f"{right!r}; only numbers are supported")
            ops = {
                ast.Add: lambda: left + right,
                ast.Sub: lambda: left - right,
                ast.Mult: lambda: left * right,
                ast.Div: lambda: left / right,
                ast.FloorDiv: lambda: left // right,
                ast.Mod: lambda: left % right,
            }
            return ops[type(node.op)]()
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, params)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, params)
                checks = {
                    ast.Eq: lambda: left == right,
                    ast.NotEq: lambda: left != right,
                    ast.Lt: lambda: left < right,
                    ast.LtE: lambda: left <= right,
                    ast.Gt: lambda: left > right,
                    ast.GtE: lambda: left >= right,
                    ast.In: lambda: left in right,
                    ast.NotIn: lambda: left not in right,
                }
                if not checks[type(op)]():
                    return False
                left = right
            return True
        if isinstance(node, ast.Call):
            function = self._eval(node.func, params)
            arguments = [self._eval(a, params) for a in node.args]
            return function(*arguments)
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._eval(element, params)
                         for element in node.elts)
        raise SpecError(
            f"constraint {self.expr!r}: unsupported node "
            f"{type(node).__name__}"
        )


def _dotted_path(node: ast.AST) -> str:
    """``cbws.table_entries`` from the Attribute/Name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    raise SpecError("constraint parameter paths must be plain dotted names")


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefineSpec:
    """Adaptive-refinement policy.

    Attributes:
        enabled: whether refinement waves run at all.
        metric: the :class:`~repro.sim.results.SimResult` response metric
            compared between competitors (``ipc`` or ``mpki``).
        axes: numeric axes eligible for subdivision (must exist in the
            spec's axes).
        competitors: the two prefetcher *bases* whose ranking defines
            the winner map (e.g. ``("cbws", "sms")``).
        max_cells: total refinement-cell budget across all waves.
        max_waves: refinement waves after the initial sweep.
        gradient_threshold: also subdivide where the relative change of
            ``metric`` along the axis exceeds this fraction (None
            disables the gradient trigger).
        min_gap: do not subdivide intervals narrower than this.
    """

    enabled: bool = False
    metric: str = "ipc"
    axes: tuple[str, ...] = ()
    competitors: tuple[str, str] = ("cbws", "sms")
    max_cells: int = 64
    max_waves: int = 2
    gradient_threshold: float | None = None
    min_gap: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "metric": self.metric,
            "axes": list(self.axes),
            "competitors": list(self.competitors),
            "max_cells": self.max_cells,
            "max_waves": self.max_waves,
            "gradient_threshold": self.gradient_threshold,
            "min_gap": self.min_gap,
        }


#: Response metrics the refinement loop understands, with their
#: "better" direction (+1 higher is better, -1 lower is better).
REFINE_METRICS = {"ipc": 1, "mpki": -1}


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """One validated sweep specification."""

    version: int
    name: str
    workloads: tuple[str, ...]
    prefetchers: tuple[str, ...]
    scale: float = 1.0
    budget_fraction: float = 1.0
    seed: int = 0
    axes: tuple[Axis, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    refine: RefineSpec = RefineSpec()

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise SpecError(f"spec has no axis {name!r}")

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready echo (the frozen ``spec.json``)."""
        return {
            "version": self.version,
            "name": self.name,
            "base": {
                "workloads": list(self.workloads),
                "prefetchers": list(self.prefetchers),
                "scale": self.scale,
                "budget_fraction": self.budget_fraction,
                "seed": self.seed,
            },
            "axes": [axis.to_dict() for axis in self.axes],
            "constraints": [c.expr for c in self.constraints],
            "refine": self.refine.to_dict(),
        }


def parse_spec(document: Mapping[str, Any]) -> CampaignSpec:
    """Validate one spec document (already decoded from TOML/JSON)."""
    _require(isinstance(document, Mapping), "spec must be a table/object")
    known_top = {"version", "name", "base", "axes", "constraints", "refine"}
    unknown = set(document) - known_top
    _require(not unknown,
             f"unknown spec field(s): {', '.join(sorted(unknown))}; "
             f"known: {', '.join(sorted(known_top))}")

    version = document.get("version")
    _require(_is_int(version), "spec is missing its integer 'version' field")
    _require(version == SPEC_VERSION,
             f"unsupported spec version {version}; this build speaks "
             f"version {SPEC_VERSION}")
    name = document.get("name", "campaign")
    _require(isinstance(name, str) and bool(name.strip()),
             "spec 'name' must be a non-empty string")

    base = document.get("base")
    _require(isinstance(base, Mapping), "spec needs a [base] table")
    known_base = {"workloads", "prefetchers", "scale", "budget_fraction",
                  "seed"}
    unknown = set(base) - known_base
    _require(not unknown,
             f"unknown base field(s): {', '.join(sorted(unknown))}")

    def _name_list(key: str) -> tuple[str, ...]:
        raw = base.get(key)
        _require(isinstance(raw, Sequence) and not isinstance(raw, str)
                 and len(raw) > 0,
                 f"base.{key} must be a non-empty list")
        _require(all(isinstance(v, str) and v.strip() for v in raw),
                 f"base.{key} entries must be non-empty strings")
        _require(len(set(raw)) == len(raw),
                 f"base.{key} lists duplicates")
        return tuple(raw)

    workloads = _name_list("workloads")
    prefetchers = _name_list("prefetchers")
    scale = base.get("scale", 1.0)
    budget_fraction = base.get("budget_fraction", 1.0)
    seed = base.get("seed", 0)
    _require(isinstance(scale, (int, float)) and scale > 0,
             "base.scale must be a positive number")
    _require(isinstance(budget_fraction, (int, float))
             and 0 < budget_fraction <= 1.0,
             "base.budget_fraction must be in (0, 1]")
    _require(_is_int(seed), "base.seed must be an integer")

    axes: list[Axis] = []
    raw_axes = document.get("axes", [])
    _require(isinstance(raw_axes, Sequence),
             "spec 'axes' must be a list of axis tables")
    for body in raw_axes:
        _require(isinstance(body, Mapping), "each axis must be a table")
        known_axis = {"name", "values", "range", "log2_range", "combine",
                      "spacing"}
        unknown = set(body) - known_axis
        _require(not unknown,
                 f"unknown axis field(s): {', '.join(sorted(unknown))}")
        axis_name = body.get("name")
        _require(isinstance(axis_name, str) and bool(axis_name.strip()),
                 "each axis needs a non-empty 'name'")
        combine = body.get("combine", "cross")
        _require(combine in ("cross", "zip"),
                 f"axis {axis_name!r}: combine must be 'cross' or 'zip'")
        values, spacing = _expand_values(axis_name, body)
        # An explicit spacing override keeps the canonical spec echo
        # (spec.to_dict(), as journaled) round-trippable: the expanded
        # value list plus its spacing is what refinement needs to know.
        declared = body.get("spacing")
        if declared is not None:
            _require(declared in ("linear", "log2"),
                     f"axis {axis_name!r}: spacing must be 'linear' or "
                     f"'log2', got {declared!r}")
            if declared == "log2":
                _require(
                    all(_is_number(v) and v > 0 for v in values),
                    f"axis {axis_name!r}: log2 spacing needs positive "
                    "numeric values",
                )
            spacing = declared
        axes.append(Axis(name=axis_name, values=values, combine=combine,
                         spacing=spacing))
    names = [axis.name for axis in axes]
    _require(len(set(names)) == len(names),
             f"duplicate axis name(s): "
             f"{', '.join(sorted(n for n in names if names.count(n) > 1))}")
    zip_lengths = {len(a.values) for a in axes if a.combine == "zip"}
    _require(len(zip_lengths) <= 1,
             f"zip axes must have equal lengths, got {sorted(zip_lengths)}")

    # Axis paths and value types are validated against the parameter
    # registry here so a typo fails at parse time, not mid-campaign.
    from repro.campaign.cells import CONFIG_PARAMS, KNOWN_PARAMS

    for axis in axes:
        _require(axis.name in KNOWN_PARAMS,
                 f"axis {axis.name!r} is not a sweepable parameter; "
                 f"known: {', '.join(sorted(KNOWN_PARAMS))}")
        if axis.name in CONFIG_PARAMS or axis.name == "seed":
            kind, accepts = "integers", _is_int
        elif axis.name in ("scale", "budget_fraction"):
            kind, accepts = "numbers", _is_number
        else:
            continue
        for value in axis.values:
            _require(accepts(value), f"axis {axis.name!r}: values must be "
                                     f"{kind}, got {value!r}")

    constraints = tuple(
        Constraint.parse(_constraint_expr(entry))
        for entry in document.get("constraints", [])
    )

    refine = _parse_refine(document.get("refine"), axes)
    return CampaignSpec(
        version=version,
        name=name.strip(),
        workloads=workloads,
        prefetchers=prefetchers,
        scale=float(scale),
        budget_fraction=float(budget_fraction),
        seed=seed,
        axes=tuple(axes),
        constraints=constraints,
        refine=refine,
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _constraint_expr(entry: Any) -> str:
    if isinstance(entry, str):
        return entry
    if isinstance(entry, Mapping) and set(entry) == {"expr"}:
        return entry["expr"]
    raise SpecError(
        "each constraint must be an expression string or {expr = ...}, "
        f"got {entry!r}"
    )


def _parse_refine(body: Any, axes: Sequence[Axis]) -> RefineSpec:
    if body is None:
        return RefineSpec()
    _require(isinstance(body, Mapping), "spec 'refine' must be a table")
    known = {"enabled", "metric", "axes", "competitors", "max_cells",
             "max_waves", "gradient_threshold", "min_gap"}
    unknown = set(body) - known
    _require(not unknown,
             f"unknown refine field(s): {', '.join(sorted(unknown))}")
    metric = body.get("metric", "ipc")
    _require(metric in REFINE_METRICS,
             f"refine.metric must be one of "
             f"{', '.join(sorted(REFINE_METRICS))}, got {metric!r}")
    refine_axes = tuple(body.get("axes", []))
    axis_names = {axis.name for axis in axes}
    for name in refine_axes:
        _require(name in axis_names,
                 f"refine.axes names unknown axis {name!r}")
        axis = next(a for a in axes if a.name == name)
        _require(
            all(isinstance(v, (int, float)) for v in axis.values),
            f"refine axis {name!r} must be numeric",
        )
        _require(axis.combine == "cross",
                 f"refine axis {name!r} must be a cross axis")
    competitors = body.get("competitors", ["cbws", "sms"])
    _require(isinstance(competitors, Sequence) and len(competitors) == 2
             and all(isinstance(c, str) for c in competitors)
             and competitors[0] != competitors[1],
             "refine.competitors must be two distinct prefetcher bases")
    max_cells = body.get("max_cells", 64)
    max_waves = body.get("max_waves", 2)
    _require(isinstance(max_cells, int) and max_cells > 0,
             "refine.max_cells must be a positive integer")
    _require(isinstance(max_waves, int) and max_waves > 0,
             "refine.max_waves must be a positive integer")
    gradient = body.get("gradient_threshold")
    _require(gradient is None
             or (isinstance(gradient, (int, float)) and gradient > 0),
             "refine.gradient_threshold must be a positive number")
    min_gap = body.get("min_gap", 1.0)
    _require(isinstance(min_gap, (int, float)) and min_gap > 0,
             "refine.min_gap must be positive")
    enabled = body.get("enabled", True)
    _require(isinstance(enabled, bool), "refine.enabled must be a boolean")
    return RefineSpec(
        enabled=enabled,
        metric=metric,
        axes=refine_axes,
        competitors=(competitors[0], competitors[1]),
        max_cells=max_cells,
        max_waves=max_waves,
        gradient_threshold=(float(gradient) if gradient is not None
                            else None),
        min_gap=float(min_gap),
    )


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a spec file, dispatching on its extension (.toml / .json)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SpecError(f"cannot read spec {path}: {error}") from None
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as error:
            raise SpecError(f"spec {path} is not valid TOML: {error}") \
                from None
    elif path.suffix.lower() == ".json":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SpecError(f"spec {path} is not valid JSON: {error}") \
                from None
    else:
        raise SpecError(
            f"spec {path} has unsupported extension {path.suffix!r}; "
            "use .toml or .json"
        )
    return parse_spec(document)


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Content fingerprint of one spec (resume legality check)."""
    from repro.exec.keys import stable_hash

    return stable_hash("campaign-spec", spec.to_dict())
