"""Spec expansion: axis points -> pruned, deduplicated, keyed cells.

The planner turns a :class:`~repro.campaign.spec.CampaignSpec` into the
concrete work of one wave:

1. **Expansion.**  Zip axes advance in lockstep as one compound axis
   (positioned where the first zip axis was declared); the result then
   crosses with every ``cross`` axis in declaration order.  No axes at
   all yields the single base point, i.e. a plain workload x prefetcher
   grid.
2. **Pruning.**  Each candidate (workload, prefetcher, point) is checked
   against every constraint, evaluated over the baseline parameter
   namespace overlaid with the point (plus ``workload``/``prefetcher``
   strings).  A spec whose constraints prune *everything* raises
   :class:`~repro.common.errors.SpecError` — an empty campaign is a spec
   bug, not a successful no-op.
3. **Dedup.**  Each cell is content-addressed by the ``key`` of its
   :class:`~repro.exec.plan.SimNode`, computed once; candidates
   resolving to a key already planned collapse into it.  This is what
   makes a cbws-geometry axis free for the ``sms`` baseline (every point
   resolves to the same simulation) and what makes re-running an
   overlapping spec compute only the delta.
4. **Cache partition.**  When a result cache is supplied, the planner
   reports which unique keys are already present — pure bookkeeping
   (the executor probes the cache again authoritatively), surfaced so
   ``repro campaign status`` can show compute saved before running
   anything.

Every unpruned candidate — including the deduplicated ones — is kept as
a :class:`CellSample` carrying its coordinates and key.  Analysis
(refinement, the sensitivity report) walks samples, not unique cells, so
a baseline collapsed to one simulation still contributes a value at
every point along the axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.campaign.cells import CampaignCell, baseline_params, build_cell
from repro.campaign.spec import Axis, CampaignSpec
from repro.common.errors import SpecError
from repro.exec.cache import ResultCache
from repro.exec.plan import SimNode
from repro.sim.config import REDUCED_CONFIG, SimConfig


@dataclass(frozen=True)
class CellSample:
    """One unpruned candidate: where it sits and which result feeds it."""

    workload: str
    prefetcher: str
    coords: tuple[tuple[str, Any], ...]
    key: str
    wave: int = 0

    def coord(self, axis: str, default: Any = None) -> Any:
        for name, value in self.coords:
            if name == axis:
                return value
        return default


@dataclass
class CampaignPlan:
    """The planned work of one wave.

    Attributes:
        cells: unique cells to execute, in deterministic expansion order.
        nodes: ``nodes[i]`` is the simulation of ``cells[i]``.
        samples: every unpruned candidate (including key-duplicates).
        candidates: expansion size before pruning.
        pruned: candidates removed by constraints.
        deduplicated: candidates collapsed into an already planned key.
        cached_keys: unique keys already present in the result cache.
    """

    cells: list[CampaignCell] = field(default_factory=list)
    nodes: list[SimNode] = field(default_factory=list)
    samples: list[CellSample] = field(default_factory=list)
    candidates: int = 0
    pruned: int = 0
    deduplicated: int = 0
    cached_keys: set[str] = field(default_factory=set)

    @property
    def unique(self) -> int:
        return len(self.cells)

    @property
    def keys(self) -> list[str]:
        """The unique cells' content keys, in plan order."""
        return [node.key for node in self.nodes]

    def stats(self) -> dict[str, int]:
        """Deterministic planning counters for journal and report."""
        return {
            "candidates": self.candidates,
            "pruned": self.pruned,
            "deduplicated": self.deduplicated,
            "unique": self.unique,
        }


def expand_points(axes: Iterable[Axis]) -> Iterator[dict[str, Any]]:
    """Every axis point, in deterministic declaration-major order."""
    slots: list[list[dict[str, Any]]] = []
    zip_slot: list[dict[str, Any]] | None = None
    for axis in axes:
        if axis.combine == "zip":
            if zip_slot is None:
                zip_slot = [{axis.name: value} for value in axis.values]
                slots.append(zip_slot)
            else:
                for point, value in zip(zip_slot, axis.values):
                    point[axis.name] = value
        else:
            slots.append([{axis.name: value} for value in axis.values])
    if not slots:
        yield {}
        return
    for combo in itertools.product(*slots):
        point: dict[str, Any] = {}
        for part in combo:
            point.update(part)
        yield point


def plan_campaign(
    spec: CampaignSpec,
    *,
    cache: ResultCache | None = None,
    base: SimConfig = REDUCED_CONFIG,
) -> CampaignPlan:
    """The initial (wave-0) plan of a campaign."""
    plan = plan_wave(
        spec,
        points=list(expand_points(spec.axes)),
        wave=0,
        known_keys=set(),
        cache=cache,
        base=base,
    )
    if plan.candidates == 0:
        raise SpecError(
            f"spec {spec.name!r} expands to zero candidate cells"
        )
    if not plan.cells:
        raise SpecError(
            f"spec {spec.name!r}: constraints pruned all "
            f"{plan.candidates} candidate cell(s); an empty campaign is "
            "almost certainly a spec bug — relax or remove a constraint"
        )
    return plan


def plan_wave(
    spec: CampaignSpec,
    points: Iterable[Mapping[str, Any]],
    wave: int,
    known_keys: set[str],
    *,
    cache: ResultCache | None = None,
    base: SimConfig = REDUCED_CONFIG,
) -> CampaignPlan:
    """Plan one wave over explicit axis points.

    ``known_keys`` holds keys planned by earlier waves; candidates
    resolving to them are recorded as samples but not re-executed.
    The set is updated in place with this wave's new keys.
    """
    plan = CampaignPlan()
    defaults = {
        **baseline_params(base),
        "scale": spec.scale,
        "budget_fraction": spec.budget_fraction,
        "seed": spec.seed,
    }
    wave_keys: set[str] = set()
    for workload in spec.workloads:
        for prefetcher in spec.prefetchers:
            for point in points:
                plan.candidates += 1
                namespace = {
                    **defaults,
                    "workload": workload,
                    "prefetcher": prefetcher,
                    **point,
                }
                if not all(constraint.evaluate(namespace)
                           for constraint in spec.constraints):
                    plan.pruned += 1
                    continue
                cell = build_cell(
                    workload,
                    prefetcher,
                    point,
                    scale=spec.scale,
                    budget_fraction=spec.budget_fraction,
                    seed=spec.seed,
                    wave=wave,
                    base=base,
                )
                node = cell.node(base)
                plan.samples.append(CellSample(
                    workload=cell.workload,
                    prefetcher=cell.prefetcher,
                    coords=cell.coords,
                    key=node.key,
                    wave=wave,
                ))
                if node.key in known_keys or node.key in wave_keys:
                    plan.deduplicated += 1
                    continue
                wave_keys.add(node.key)
                plan.cells.append(cell)
                plan.nodes.append(node)
    known_keys.update(wave_keys)
    if cache is not None:
        plan.cached_keys = {key for key in plan.keys if cache.contains(key)}
    return plan
