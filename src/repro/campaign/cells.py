"""Campaign cells: one simulation point and how its parameters apply.

A *cell* is the atomic unit of a campaign: one fully determined
simulation — workload, (possibly parametrized) prefetcher name, trace
identity (scale / budget_fraction / seed), and a sparse set of machine
overrides.  :meth:`CampaignCell.node` turns a cell into the
:class:`~repro.exec.plan.SimNode` every execution path runs, and the
node's ``key`` is the cell's content address — so a campaign cell, a
``repro run`` cell and a serve request that describe the same
simulation share one cache entry.

Parameter paths
---------------

Axes and constraints name parameters by dotted *path*.  The registry
:data:`KNOWN_PARAMS` is the single source of truth; each path falls in
one of three groups:

*identity*
    ``scale``, ``budget_fraction``, ``seed`` — trace identity fields.
*config*
    ``l1_kb``, ``l2_kb``, ``l1.associativity``,
    ``l1.mshrs``, ``l2.associativity``, ``l2.mshrs``, ``core.*``,
    ``prefetch.*`` — sparse :class:`~repro.sim.config.SimConfig`
    overrides, resolved by :func:`repro.sim.config.resolve_cell_config`
    exactly like a serve request's.  The cache-shape paths go beyond
    what the wire protocol can express (see :func:`serve_inexpressible`).
*prefetcher geometry*
    ``cbws.*``, ``pangloss.*``, ``pythia.*`` — geometry and learning
    knobs of the parametric prefetcher families.  These do not touch
    the machine config at all: they fold into the prefetcher *name* as
    an inline parameter block (``cbws[table_entries=64]``,
    ``pythia[alpha=0.01]``), which the registry's
    :func:`~repro.harness.registry.make_prefetcher` understands
    everywhere.  Applied to a prefetcher outside the path's family
    (e.g. ``pythia.alpha`` on ``sms`` — or on ``pangloss``) they are
    no-ops, so all points along that axis collapse to one content key —
    the planner's dedup turns that into compute saved rather than
    wasted baseline reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.common.errors import CampaignError, ConfigError
from repro.exec.plan import SimNode, TraceNode
from repro.harness.registry import (
    CBWS_PARAM_FIELDS,
    PANGLOSS_PARAM_FIELDS,
    PYTHIA_PARAM_FIELDS,
    canonical_prefetcher_name,
    coerce_param,
    format_param_value,
    parse_prefetcher_name,
)
from repro.sim.config import (
    CONFIG_PARAMS,
    REDUCED_CONFIG,
    SimConfig,
    resolve_cell_config,
)

#: Identity (trace-key) parameter paths.
IDENTITY_PARAMS = frozenset({"scale", "budget_fraction", "seed"})

#: CBWS geometry paths (fold into the prefetcher name).
CBWS_PARAMS = frozenset(f"cbws.{field}" for field in sorted(CBWS_PARAM_FIELDS))

#: Pangloss geometry paths (fold into the prefetcher name).
PANGLOSS_PARAMS = frozenset(
    f"pangloss.{field}" for field in sorted(PANGLOSS_PARAM_FIELDS)
)

#: Pythia geometry/learning paths (fold into the prefetcher name).
PYTHIA_PARAMS = frozenset(
    f"pythia.{field}" for field in sorted(PYTHIA_PARAM_FIELDS)
)

#: Geometry path prefix -> the base names the paths apply to.  A path
#: whose prefix does not match the cell's base prefetcher is a no-op
#: (the point collapses onto the unparametrized cell).  ``cbws.*``
#: reaches both CBWS variants because they share one config.
GEOMETRY_FAMILIES: dict[str, tuple[str, ...]] = {
    "cbws": ("cbws", "cbws+sms"),
    "pangloss": ("pangloss",),
    "pythia": ("pythia",),
}

#: Every geometry path (all families).
GEOMETRY_PARAMS = CBWS_PARAMS | PANGLOSS_PARAMS | PYTHIA_PARAMS

#: Every sweepable parameter path.
KNOWN_PARAMS = IDENTITY_PARAMS | CONFIG_PARAMS | GEOMETRY_PARAMS

#: Config paths the serve wire protocol cannot express (cache shape is
#: not part of the sparse-override schema).
SERVE_INEXPRESSIBLE_PARAMS = frozenset({
    "l1.associativity",
    "l1.mshrs",
    "l2.associativity",
    "l2.mshrs",
})


@dataclass(frozen=True)
class CampaignCell:
    """One fully determined simulation point.

    Attributes:
        workload: workload name.
        prefetcher: final (canonicalized, possibly parametrized) name.
        scale / budget_fraction / seed: trace identity.
        overrides: sorted ``(path, value)`` machine-config overrides.
        coords: sorted ``(axis, value)`` point that produced this cell —
            kept for reporting and refinement, not part of the content
            key (the resolved config in :meth:`node` is).
        wave: 0 for the initial sweep, ``n`` for refinement wave *n*.
    """

    workload: str
    prefetcher: str
    scale: float = 1.0
    budget_fraction: float = 1.0
    seed: int = 0
    overrides: tuple[tuple[str, int], ...] = ()
    coords: tuple[tuple[str, Any], ...] = ()
    wave: int = 0

    def node(self, base: SimConfig = REDUCED_CONFIG) -> SimNode:
        """The simulation this cell describes over machine ``base``."""
        return SimNode(
            TraceNode(self.workload, self.scale, self.budget_fraction,
                      self.seed),
            self.prefetcher,
            resolve_cell_config(self.overrides, base),
        )

    def coord(self, axis: str, default: Any = None) -> Any:
        """The value this cell takes on one axis."""
        for name, value in self.coords:
            if name == axis:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; :meth:`from_dict` round-trips it exactly."""
        return {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "scale": self.scale,
            "budget_fraction": self.budget_fraction,
            "seed": self.seed,
            "overrides": [[path, value] for path, value in self.overrides],
            "coords": [[axis, value] for axis, value in self.coords],
            "wave": self.wave,
        }

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "CampaignCell":
        """Rebuild a cell from its journaled form."""
        try:
            return cls(
                workload=body["workload"],
                prefetcher=body["prefetcher"],
                scale=float(body["scale"]),
                budget_fraction=float(body["budget_fraction"]),
                seed=int(body["seed"]),
                overrides=tuple(
                    (path, value) for path, value in body["overrides"]
                ),
                coords=tuple(
                    (axis, value) for axis, value in body["coords"]
                ),
                wave=int(body.get("wave", 0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CampaignError(
                f"malformed journaled cell {body!r}: {error}"
            ) from None


def build_cell(
    workload: str,
    prefetcher: str,
    point: Mapping[str, Any],
    *,
    scale: float,
    budget_fraction: float,
    seed: int,
    wave: int = 0,
    base: SimConfig = REDUCED_CONFIG,
) -> CampaignCell:
    """One candidate cell from a (workload, prefetcher, axis-point).

    Partitions the point's parameters into identity fields, config
    overrides, and cbws geometry (folded into the prefetcher name; axis
    values override a parameter block already present in the base
    name).  The resolved config is validated here so an invalid corner
    fails at *plan* time with the offending coordinates, not mid-run.
    """
    coords = tuple(sorted(point.items()))
    unknown = set(point) - KNOWN_PARAMS
    if unknown:
        raise CampaignError(
            f"unknown parameter path(s): {', '.join(sorted(unknown))}"
        )
    for path in IDENTITY_PARAMS & set(point):
        value = point[path]
        if path == "scale":
            scale = float(value)
        elif path == "budget_fraction":
            budget_fraction = float(value)
        else:
            seed = int(value)

    try:
        base_name, base_params = parse_prefetcher_name(prefetcher)
        geometry_point: dict[str, Any] = {}
        for path in GEOMETRY_PARAMS & set(point):
            prefix, field = path.split(".", 1)
            if base_name in GEOMETRY_FAMILIES[prefix]:
                geometry_point[field] = coerce_param(
                    base_name, field, point[path]
                )
        if geometry_point:
            merged = {**base_params, **geometry_point}
            body = ",".join(
                f"{k}={format_param_value(merged[k])}" for k in sorted(merged)
            )
            prefetcher = canonical_prefetcher_name(f"{base_name}[{body}]")
        else:
            prefetcher = canonical_prefetcher_name(prefetcher)
    except ConfigError as error:
        raise CampaignError(
            f"cell {coords!r}: bad prefetcher {prefetcher!r}: {error}"
        ) from None

    overrides = tuple(sorted(
        (path, int(point[path])) for path in CONFIG_PARAMS & set(point)
    ))
    cell = CampaignCell(
        workload=workload,
        prefetcher=prefetcher,
        scale=scale,
        budget_fraction=budget_fraction,
        seed=seed,
        overrides=overrides,
        coords=coords,
        wave=wave,
    )
    try:
        resolve_cell_config(overrides, base)
    except ConfigError as error:
        raise CampaignError(
            f"cell {coords!r} resolves to an invalid machine: {error}; "
            "add a constraint to prune this corner"
        ) from None
    return cell


def baseline_params(base: SimConfig = REDUCED_CONFIG) -> dict[str, Any]:
    """Default value of every sweepable parameter path.

    Constraint expressions evaluate against this namespace overlaid with
    the candidate point, so a predicate may reference a parameter the
    spec does not sweep (``l2_kb >= 4 * l1_kb`` holds — or not — at the
    baseline too).
    """
    from repro.core.predictor import CbwsConfig
    from repro.prefetchers.learned import PanglossConfig, PythiaConfig

    cbws = CbwsConfig()
    pangloss = PanglossConfig()
    pythia = PythiaConfig()
    return {
        "scale": 1.0,
        "budget_fraction": 1.0,
        "seed": 0,
        "l1_kb": base.hierarchy.l1.size_bytes // 1024,
        "l2_kb": base.hierarchy.l2.size_bytes // 1024,
        "l1.associativity": base.hierarchy.l1.associativity,
        "l1.mshrs": base.hierarchy.l1.mshrs,
        "l2.associativity": base.hierarchy.l2.associativity,
        "l2.mshrs": base.hierarchy.l2.mshrs,
        "core.width": base.core.width,
        "core.rob_entries": base.core.rob_entries,
        "core.l1_latency": base.core.l1_latency,
        "core.l2_latency": base.core.l2_latency,
        "core.memory_latency": base.core.memory_latency,
        "prefetch.queue_capacity": base.prefetch.queue_capacity,
        "prefetch.issue_interval": base.prefetch.issue_interval,
        "prefetch.max_in_flight": base.prefetch.max_in_flight,
        **{
            f"cbws.{field}": getattr(cbws, field)
            for field in sorted(CBWS_PARAM_FIELDS)
        },
        **{
            f"pangloss.{field}": getattr(pangloss, field)
            for field in sorted(PANGLOSS_PARAM_FIELDS)
        },
        **{
            f"pythia.{field}": getattr(pythia, field)
            for field in sorted(PYTHIA_PARAM_FIELDS)
        },
    }


def serve_inexpressible(cell: CampaignCell) -> str | None:
    """Why this cell cannot run through a serve endpoint (None if it can).

    The wire protocol's sparse overrides cover cache *sizes* and the
    core/prefetch scalars but not cache shape (associativity, MSHRs);
    cbws geometry always travels in the prefetcher name, which serve
    accepts as-is.
    """
    blocked = sorted(
        path for path, _ in cell.overrides
        if path in SERVE_INEXPRESSIBLE_PARAMS
    )
    if blocked:
        return (
            f"override(s) {', '.join(blocked)} are not expressible in "
            "the serve wire protocol; run this campaign with the grid "
            "executor instead"
        )
    return None
