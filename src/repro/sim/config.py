"""Simulation configuration (Table II).

Two canonical configurations are provided:

* :data:`PAPER_CONFIG` — the exact Table II machine: 32 KB L1s, a 2 MB
  inclusive L2, 300-cycle memory, 4-wide out-of-order core.
* :data:`REDUCED_CONFIG` — the default for experiments in this
  reproduction: the same structure with cache capacities scaled down
  (4 KB L1, 128 KB L2) so that workloads with proportionally scaled
  footprints exercise the same miss behaviour at pure-Python trace
  lengths.  EXPERIMENTS.md records which scale every experiment used.

Campaign cells and serve requests name a machine as sparse overrides of
a base config — sorted ``(path, value)`` pairs such as
``("l1_kb", 8)`` or ``("core.rob_entries", 64)`` — and
:func:`resolve_cell_config` is the one place those resolve.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.common.constants import DEFAULT_LINE_SIZE
from repro.common.errors import ConfigError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class CoreConfig:
    """Core timing parameters (Table II, CPU column).

    Attributes:
        width: out-of-order retire width.
        rob_entries: reorder buffer depth; misses further apart than this
            (in instructions) cannot overlap.
        l1_latency / l2_latency / memory_latency: access latencies in
            cycles.
    """

    width: int = 4
    rob_entries: int = 128
    l1_latency: int = 2
    l2_latency: int = 30
    memory_latency: int = 300

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigError("core width must be positive")
        if self.rob_entries <= 0:
            raise ConfigError("ROB must have at least one entry")
        if self.l1_latency < 1 or self.l2_latency < 1 \
                or self.memory_latency < 1:
            raise ConfigError(
                "latencies must be at least one cycle: got "
                f"L1={self.l1_latency} L2={self.l2_latency} "
                f"memory={self.memory_latency}"
            )
        if not self.l1_latency <= self.l2_latency <= self.memory_latency:
            raise ConfigError(
                "latencies must be monotone: L1 <= L2 <= memory"
            )


@dataclass(frozen=True)
class PrefetchPathConfig:
    """The prefetch issue path between predictor and memory.

    Attributes:
        queue_capacity: candidates awaiting issue; overflow drops the
            newest candidates (hardware queues do not grow).
        issue_interval: cycles between consecutive prefetch issues — the
            bandwidth knob that makes *non-timely* and
            *shorter-waiting-time* outcomes possible.
        max_in_flight: outstanding prefetches (L2 MSHRs dedicated to
            prefetch traffic).
    """

    queue_capacity: int = 64
    issue_interval: int = 8
    max_in_flight: int = 32

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0 or self.max_in_flight <= 0:
            raise ConfigError("prefetch queue and MSHR counts must be positive")
        if self.issue_interval <= 0:
            raise ConfigError("prefetch issue interval must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Complete machine configuration."""

    hierarchy: HierarchyConfig
    core: CoreConfig = field(default_factory=CoreConfig)
    prefetch: PrefetchPathConfig = field(default_factory=PrefetchPathConfig)


def _hierarchy(l1_kb: int, l2_kb: int, core: CoreConfig) -> HierarchyConfig:
    return HierarchyConfig(
        l1=CacheConfig(
            name="L1D",
            size_bytes=l1_kb * 1024,
            associativity=4,
            line_size=DEFAULT_LINE_SIZE,
            latency=core.l1_latency,
            mshrs=4,
        ),
        l2=CacheConfig(
            name="L2",
            size_bytes=l2_kb * 1024,
            associativity=8,
            line_size=DEFAULT_LINE_SIZE,
            latency=core.l2_latency,
            mshrs=32,
        ),
    )


_CORE = CoreConfig()

#: The exact Table II machine.
PAPER_CONFIG = SimConfig(hierarchy=_hierarchy(32, 2048, _CORE), core=_CORE)

#: Table II with scaled-down cache capacities (see module docstring).
REDUCED_CONFIG = SimConfig(hierarchy=_hierarchy(4, 128, _CORE), core=_CORE)


#: Every sparse override path :func:`resolve_cell_config` accepts.
CONFIG_PARAMS = frozenset({
    "l1_kb",
    "l2_kb",
    "l1.associativity",
    "l1.mshrs",
    "l2.associativity",
    "l2.mshrs",
    "core.width",
    "core.rob_entries",
    "core.l1_latency",
    "core.l2_latency",
    "core.memory_latency",
    "prefetch.queue_capacity",
    "prefetch.issue_interval",
    "prefetch.max_in_flight",
})


def resolve_cell_config(
    overrides: tuple[tuple[str, int], ...] | Mapping[str, int],
    base: SimConfig = REDUCED_CONFIG,
) -> SimConfig:
    """Apply sparse ``(path, value)`` overrides (:data:`CONFIG_PARAMS`)
    to ``base``.

    ``l1_kb`` / ``l2_kb`` set a cache's capacity, ``l1.*`` / ``l2.*`` /
    ``core.*`` / ``prefetch.*`` one field each.  Field validation happens
    in the config dataclasses' own ``__post_init__`` (a
    :class:`ConfigError`).  The line size is not an override: the
    stride prefetcher shifts by the constant ``LINE_SHIFT`` and
    ``SmsConfig.line_size`` is 64.
    """
    mapping = dict(overrides)
    unknown = set(mapping) - CONFIG_PARAMS
    if unknown:
        raise ConfigError(
            f"unknown config override path(s): {', '.join(sorted(unknown))}"
        )
    fields: dict[str, dict[str, int]] = {
        "l1": {}, "l2": {}, "core": {}, "prefetch": {},
    }
    for path, value in mapping.items():
        if path in ("l1_kb", "l2_kb"):
            fields[path[:2]]["size_bytes"] = value * 1024
        else:
            group, name = path.split(".", 1)
            fields[group][name] = value

    def replaced(config, group: str):
        return (dataclasses.replace(config, **fields[group])
                if fields[group] else config)

    hierarchy = base.hierarchy
    if fields["l1"] or fields["l2"]:
        hierarchy = dataclasses.replace(
            hierarchy, l1=replaced(hierarchy.l1, "l1"),
            l2=replaced(hierarchy.l2, "l2"))
    return SimConfig(hierarchy=hierarchy, core=replaced(base.core, "core"),
                     prefetch=replaced(base.prefetch, "prefetch"))
