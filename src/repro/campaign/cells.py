"""Campaign cells: one simulation point and how its parameters apply.

A *cell* is the atomic unit of a campaign: one fully determined
simulation — workload, (possibly parametrized) prefetcher name, trace
identity (scale / budget_fraction / seed), and a sparse set of machine
overrides.  That is exactly a serve request, so a cell holds a
:class:`~repro.serve.protocol.SimulateRequest`, whose
:meth:`~repro.serve.protocol.SimulateRequest.node` is the
:class:`~repro.exec.plan.SimNode` every execution path runs.  The
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
    :data:`~repro.sim.config.CONFIG_PARAMS` — sparse
    :class:`~repro.sim.config.SimConfig` overrides, resolved by
    :func:`repro.sim.config.resolve_cell_config`.
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
from repro.harness.registry import (
    CBWS_PARAM_FIELDS,
    PANGLOSS_PARAM_FIELDS,
    PYTHIA_PARAM_FIELDS,
    canonical_prefetcher_name,
    coerce_param,
    format_param_value,
    parse_prefetcher_name,
)
from repro.serve.protocol import SimulateRequest
from repro.sim.config import (
    CONFIG_PARAMS,
    REDUCED_CONFIG,
    SimConfig,
    config_values,
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

@dataclass(frozen=True)
class CampaignCell:
    """One fully determined simulation point.

    Attributes:
        request: the simulation, as a serve request describes it; its
            prefetcher name is canonicalized and possibly parametrized.
        coords: sorted ``(axis, value)`` point that produced this cell —
            kept for reporting and refinement, not part of the content
            key (the resolved config in ``request.node()`` is).
        wave: 0 for the initial sweep, ``n`` for refinement wave *n*.
    """

    request: SimulateRequest
    coords: tuple[tuple[str, Any], ...] = ()
    wave: int = 0

    def coord(self, axis: str, default: Any = None) -> Any:
        """The value this cell takes on one axis."""
        for name, value in self.coords:
            if name == axis:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``wave-planned`` journal record's)."""
        request = self.request
        return {
            "workload": request.workload,
            "prefetcher": request.prefetcher,
            "scale": request.scale,
            "budget_fraction": request.budget_fraction,
            "seed": request.seed,
            "overrides": [[path, value] for path, value in request.overrides],
            "coords": [[axis, value] for axis, value in self.coords],
            "wave": self.wave,
        }


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
        SimulateRequest(workload=workload, prefetcher=prefetcher,
                        scale=scale, budget_fraction=budget_fraction,
                        seed=seed, overrides=overrides),
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
        **config_values(base),
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
