"""Prefetcher factories for the evaluation grid.

Beyond the fixed paper set, the bases in :data:`FAMILIES` may carry an
inline parameter block — ``cbws[table_entries=64,max_step=2]`` — that
rebuilds the prefetcher with a custom config
(:class:`~repro.core.predictor.CbwsConfig` geometry, Pangloss and
Pythia knobs).  The parametrized name is an ordinary string everywhere
else in the system (grid cells, campaign cells, the serve wire
protocol), which is exactly what makes design-space sweeps over
prefetcher geometry (``repro campaign``) possible without new plumbing:
the name *is* the configuration; :func:`geometry_defaults` and
:func:`apply_geometry` give the campaign its ``cbws.*``, ``pangloss.*``
and ``pythia.*`` paths.  :func:`canonical_prefetcher_name` sorts the
parameters and drops every one equal to its effective default, and
:attr:`repro.exec.plan.SimNode.key` hashes that canonical form, so two
spellings of one geometry (``cbws[max_step=4]`` and ``cbws``) share one
cache key on every execution path.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Mapping, NamedTuple

from repro.common.errors import ConfigError
from repro.core.hybrid import CbwsSmsPrefetcher
from repro.core.predictor import CbwsConfig
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.ampm import AmpmPrefetcher
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.ghb import GhbConfig, GhbPrefetcher
from repro.prefetchers.learned import (
    PanglossConfig,
    PanglossPrefetcher,
    PythiaConfig,
    PythiaPrefetcher,
)
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.none import NoPrefetcher
from repro.prefetchers.sms import SmsPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.prefetchers.throttle import ThrottledPrefetcher

#: Factories build a *fresh* prefetcher per simulation (no shared state).
PREFETCHER_FACTORIES: dict[str, Callable[[], Prefetcher]] = {
    "no-prefetch": NoPrefetcher,
    "stride": StridePrefetcher,
    "ghb-pc/dc": lambda: GhbPrefetcher(GhbConfig(mode="pc")),
    "ghb-g/dc": lambda: GhbPrefetcher(GhbConfig(mode="global")),
    "sms": SmsPrefetcher,
    "cbws": CbwsPrefetcher,
    "cbws+sms": CbwsSmsPrefetcher,
    # Extensions beyond the paper's evaluated set (related work).
    "ampm": AmpmPrefetcher,
    "markov": MarkovPrefetcher,
    "fdp(cbws+sms)": lambda: ThrottledPrefetcher(CbwsSmsPrefetcher()),
    # Learned prefetchers (post-2014 related work).
    "pangloss": PanglossPrefetcher,
    "pythia": PythiaPrefetcher,
}

#: The bar order used by Figures 12-15.
PAPER_PREFETCHER_ORDER: list[str] = [
    "no-prefetch",
    "stride",
    "ghb-pc/dc",
    "ghb-g/dc",
    "sms",
    "cbws",
    "cbws+sms",
]

#: The paper's set plus the related-work extensions.
EXTENDED_PREFETCHER_ORDER: list[str] = [
    *PAPER_PREFETCHER_ORDER,
    "ampm",
    "markov",
    "fdp(cbws+sms)",
    "pangloss",
    "pythia",
]


class Family(NamedTuple):
    """One parametric prefetcher family.

    Attributes:
        prefix: the campaign path prefix of its fields
            (``cbws.table_entries``).
        config: the config class its parameter block fills.
        fields: the config fields a name may set; each value parses
            with the type of the field's default (``int``, ``float``
            or ``str``).
        build: the prefetcher for one config.
    """

    prefix: str
    config: type
    fields: tuple[str, ...]
    build: Callable[[object], Prefetcher]


#: The geometry knobs the paper's §VI sensitivity study varies.
_CBWS_FIELDS = (
    "history_depth",        # shift-register depth
    "max_step",             # predecessor CBWSs kept / differential depth k
    "max_vector_members",   # CBWS buffer capacity
    "predict_steps",        # lookahead depth
    "table_entries",        # differential history table capacity
)

#: Bases that accept an inline ``[key=value,...]`` parameter block —
#: the only table in the system that names the parametric families.
#: Pythia's learning parameters are floats (``pythia[alpha=0.065]``)
#: and ``feature_set`` is a string (``pythia[feature_set=pc+offset]``);
#: values may not contain commas or brackets (the block grammar).
FAMILIES: dict[str, Family] = {
    "cbws": Family("cbws", CbwsConfig, _CBWS_FIELDS, CbwsPrefetcher),
    "cbws+sms": Family(
        "cbws", CbwsConfig, _CBWS_FIELDS,
        lambda config: CbwsSmsPrefetcher(cbws_config=config),
    ),
    "pangloss": Family(
        "pangloss", PanglossConfig,
        ("confidence_percent", "counter_max", "degree", "lines_per_page",
         "markov_rows", "page_entries", "row_slots"),
        PanglossPrefetcher,
    ),
    "pythia": Family(
        "pythia", PythiaConfig,
        ("alpha", "epsilon", "feature_set", "gamma", "history_len",
         "inflight_entries", "page_entries", "q_entries", "timely_age",
         "useless_age"),
        PythiaPrefetcher,
    ),
}

_PARAM_BLOCK = re.compile(r"^(?P<base>[^\[\]]+)\[(?P<params>[^\[\]]*)\]$")

_TYPE_LABELS = {int: "an integer", float: "a number", str: "a string"}


def _default_config(base: str, params: dict[str, object]) -> object:
    """The config a ``base[...]`` name gets for every parameter it
    leaves out, given the ``params`` it sets.

    For the CBWS families ``predict_steps`` defaults to "all
    ``max_step`` registers" (Section IV-C): a sweep that shrinks
    ``max_step`` must not trip the ``predict_steps <= max_step``
    validation, so the default follows ``max_step`` down.  A
    ``max_step`` below 1 leaves it alone, so the error names
    ``max_step``, the parameter the user set.
    """
    defaults = FAMILIES[base].config()
    if (isinstance(defaults, CbwsConfig)
            and params.get("max_step", 0) >= 1):
        defaults = dataclasses.replace(
            defaults,
            predict_steps=min(defaults.predict_steps, params["max_step"]),
        )
    return defaults


def _format_value(value: object) -> str:
    """The canonical spelling of one inline parameter value.

    Integers print plainly, floats through :func:`repr` (the shortest
    round-tripping form), strings as-is — so a parsed name reformats to
    itself and two spellings of one value share one cache key.
    """
    if isinstance(value, float):
        return repr(value)
    return str(value)


def geometry_defaults() -> dict[str, object]:
    """Every campaign geometry path with its default value.

    One path per family prefix and field (``cbws.table_entries`` ->
    16); ``cbws`` and ``cbws+sms`` share the ``cbws.*`` paths.
    """
    values: dict[str, object] = {}
    for family in FAMILIES.values():
        defaults = family.config()
        for field in family.fields:
            values[f"{family.prefix}.{field}"] = getattr(defaults, field)
    return values


def apply_geometry(name: str, point: Mapping[str, object]) -> str:
    """The canonical name of ``name`` with the geometry paths of
    ``point`` set in its parameter block.

    Only the paths of the base's own family apply, over any parameter
    the name already sets; every other path in ``point`` (config,
    identity, another family's geometry) is ignored.  Values parse as
    they would in a hand-written block, so a swept ``pythia.alpha``
    point and a ``pythia[alpha=...]`` name share one spelling.
    """
    base, params = parse_prefetcher_name(name)
    family = FAMILIES.get(base)
    if family is not None:
        for field in family.fields:
            path = f"{family.prefix}.{field}"
            if path in point:
                params[field] = point[path]
    if not params:
        return base
    body = ",".join(f"{key}={_format_value(params[key])}" for key in params)
    return canonical_prefetcher_name(f"{base}[{body}]")


def parse_prefetcher_name(name: str) -> tuple[str, dict[str, object]]:
    """Split ``base[k=v,...]`` into its base name and parameter map.

    A plain name returns ``(name, {})``.  Each value parses with the
    type of its field's default in the family's config (ints for
    geometry fields, floats for the RL learning parameters, strings
    for ``feature_set``).  Raises
    :class:`ConfigError` on malformed blocks, unknown bases/fields,
    duplicates, or unparsable values.
    """
    match = _PARAM_BLOCK.match(name)
    if match is None:
        if "[" in name or "]" in name:
            raise ConfigError(
                f"malformed prefetcher name {name!r}; want base[k=v,...]"
            )
        return name, {}
    base = match.group("base")
    family = FAMILIES.get(base)
    if family is None:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(
            f"prefetcher {base!r} does not accept parameters; "
            f"parametric families: {known}"
        )
    defaults = family.config()
    params: dict[str, object] = {}
    body = match.group("params").strip()
    if not body:
        raise ConfigError(
            f"empty parameter block in prefetcher name {name!r}"
        )
    for clause in body.split(","):
        key, separator, value = clause.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ConfigError(
                f"malformed parameter clause {clause!r} in {name!r}; "
                "want key=value"
            )
        if key not in family.fields:
            known = ", ".join(family.fields)
            raise ConfigError(
                f"unknown {base} parameter {key!r} in {name!r}; known: {known}"
            )
        if key in params:
            raise ConfigError(f"duplicate parameter {key!r} in {name!r}")
        parser = type(getattr(defaults, key))
        try:
            params[key] = parser(value.strip())
        except ValueError:
            raise ConfigError(
                f"parameter {key!r} in {name!r} must be "
                f"{_TYPE_LABELS[parser]}, got {value.strip()!r}"
            ) from None
    return base, params


def canonical_prefetcher_name(name: str) -> str:
    """The spelling-independent form of a (possibly parametrized) name.

    Parameters sort by key so ``cbws[max_step=2,table_entries=64]`` and
    ``cbws[table_entries=64,max_step=2]`` produce one cache key.
    Parameters equal to their effective default (what
    :func:`make_prefetcher` would use without them) are dropped —
    ``cbws[table_entries=16]`` *is* ``cbws``,
    ``cbws[max_step=2,predict_steps=2]`` *is* ``cbws[max_step=2]``, and
    ``pythia[gamma=0.556]`` *is* ``pythia``.
    """
    base, params = parse_prefetcher_name(name)
    if not params:
        return base
    defaults = _default_config(base, params)
    meaningful = {
        key: value for key, value in params.items()
        if value != getattr(defaults, key)
    }
    if not meaningful:
        return base
    body = ",".join(
        f"{key}={_format_value(meaningful[key])}"
        for key in sorted(meaningful)
    )
    return f"{base}[{body}]"


def make_prefetcher(name: str) -> Prefetcher:
    """Build a fresh prefetcher by its (possibly parametrized) name."""
    base, params = parse_prefetcher_name(name)
    if params:
        config = dataclasses.replace(_default_config(base, params), **params)
        return FAMILIES[base].build(config)
    try:
        factory = PREFETCHER_FACTORIES[name]
    except KeyError:
        known = ", ".join(PAPER_PREFETCHER_ORDER)
        raise ConfigError(f"unknown prefetcher {name!r}; known: {known}") from None
    return factory()
