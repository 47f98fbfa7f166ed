"""Prefetcher factories for the evaluation grid.

Beyond the fixed paper set, names may carry an inline parameter block —
``cbws[table_entries=64,max_step=2]`` — that rebuilds the prefetcher
with a custom :class:`~repro.core.predictor.CbwsConfig` geometry.  The
parametrized name is an ordinary string everywhere else in the system
(grid cells, campaign cells, the serve wire protocol), which is exactly
what makes design-space sweeps over prefetcher geometry
(``repro campaign``) possible without new plumbing: the name *is* the
configuration.  :func:`canonical_prefetcher_name` sorts the parameters
and drops every one equal to its effective default, and
:attr:`repro.exec.plan.SimNode.key` hashes that canonical form, so two
spellings of one geometry (``cbws[max_step=4]`` and ``cbws``) share one
cache key on every execution path.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable

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


#: Bases that accept an inline ``[key=value,...]`` parameter block.
#: The bool is the CBWS hybrid flag (True = CBWS over SMS); it is
#: meaningless for the learned families, which build their own configs.
PARAMETRIC_FAMILIES: dict[str, bool] = {
    "cbws": False,       # hybrid=False
    "cbws+sms": True,    # hybrid=True
    "pangloss": False,
    "pythia": False,
}

#: CbwsConfig fields settable through a parametrized name — the
#: geometry knobs the paper's §VI sensitivity study varies.
CBWS_PARAM_FIELDS = frozenset({
    "table_entries",        # differential history table capacity
    "max_step",             # predecessor CBWSs kept / differential depth k
    "predict_steps",        # lookahead depth
    "history_depth",        # shift-register depth
    "max_vector_members",   # CBWS buffer capacity
})

#: PanglossConfig fields settable through a parametrized name.
PANGLOSS_PARAM_FIELDS = frozenset({
    "lines_per_page",
    "page_entries",
    "markov_rows",
    "row_slots",
    "counter_max",
    "degree",
    "confidence_percent",
})

#: PythiaConfig fields settable through a parametrized name.  The
#: learning parameters are floats (``pythia[alpha=0.065]``) and
#: ``feature_set`` is a string (``pythia[feature_set=pc+offset]``);
#: values may not contain commas or brackets (the block grammar).
PYTHIA_PARAM_FIELDS = frozenset({
    "alpha",
    "gamma",
    "epsilon",
    "feature_set",
    "history_len",
    "q_entries",
    "page_entries",
    "inflight_entries",
    "timely_age",
    "useless_age",
})

#: Per-family value parsers: base -> {field: str -> value}.
_PARAM_SCHEMAS: dict[str, dict[str, Callable[[str], object]]] = {
    "cbws": {f: int for f in CBWS_PARAM_FIELDS},
    "cbws+sms": {f: int for f in CBWS_PARAM_FIELDS},
    "pangloss": {f: int for f in PANGLOSS_PARAM_FIELDS},
    "pythia": {
        **{f: int for f in PYTHIA_PARAM_FIELDS},
        "alpha": float,
        "gamma": float,
        "epsilon": float,
        "feature_set": str,
    },
}

#: Per-family default-config factory.
_FAMILY_DEFAULTS: dict[str, Callable[[], object]] = {
    "cbws": CbwsConfig,
    "cbws+sms": CbwsConfig,
    "pangloss": PanglossConfig,
    "pythia": PythiaConfig,
}


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
    defaults = _FAMILY_DEFAULTS[base]()
    if (isinstance(defaults, CbwsConfig)
            and params.get("max_step", 0) >= 1):
        defaults = dataclasses.replace(
            defaults,
            predict_steps=min(defaults.predict_steps, params["max_step"]),
        )
    return defaults

_PARAM_BLOCK = re.compile(r"^(?P<base>[^\[\]]+)\[(?P<params>[^\[\]]*)\]$")

_TYPE_LABELS = {int: "an integer", float: "a number", str: "a string"}


def format_param_value(value: object) -> str:
    """The canonical spelling of one inline parameter value.

    Integers print plainly, floats through :func:`repr` (the shortest
    round-tripping form), strings as-is — so a parsed name reformats to
    itself and two spellings of one value share one cache key.
    """
    if isinstance(value, float):
        return repr(value)
    return str(value)


def coerce_param(base: str, key: str, value: object) -> object:
    """Coerce one parameter value to the typed form family ``base``
    takes in an inline block.

    Campaign axes hand values over as whatever the sweep spec parsed
    (strings, ints, floats); this funnels them through the same
    per-family schema as :func:`parse_prefetcher_name` so a swept
    ``pythia.alpha`` point and a hand-written ``pythia[alpha=...]``
    name agree bit-for-bit on the canonical spelling.
    """
    try:
        parser = _PARAM_SCHEMAS[base][key]
    except KeyError:
        raise ConfigError(f"unknown {base} parameter {key!r}") from None
    if isinstance(value, str):
        value = value.strip()
    try:
        return parser(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"parameter {key!r} of {base} must be "
            f"{_TYPE_LABELS[parser]}, got {value!r}"
        ) from None


def parse_prefetcher_name(name: str) -> tuple[str, dict[str, object]]:
    """Split ``base[k=v,...]`` into its base name and parameter map.

    A plain name returns ``(name, {})``.  Values parse through the
    family's schema (ints for geometry fields, floats for the RL
    learning parameters, strings for ``feature_set``).  Raises
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
    if base not in PARAMETRIC_FAMILIES:
        known = ", ".join(sorted(PARAMETRIC_FAMILIES))
        raise ConfigError(
            f"prefetcher {base!r} does not accept parameters; "
            f"parametric families: {known}"
        )
    schema = _PARAM_SCHEMAS[base]
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
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(
                f"unknown {base} parameter {key!r} in {name!r}; known: {known}"
            )
        if key in params:
            raise ConfigError(f"duplicate parameter {key!r} in {name!r}")
        parser = schema[key]
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
        f"{key}={format_param_value(meaningful[key])}"
        for key in sorted(meaningful)
    )
    return f"{base}[{body}]"


def make_prefetcher(name: str) -> Prefetcher:
    """Build a fresh prefetcher by its (possibly parametrized) name."""
    base, params = parse_prefetcher_name(name)
    if params:
        config = dataclasses.replace(_default_config(base, params), **params)
        if base == "pangloss":
            return PanglossPrefetcher(config)
        if base == "pythia":
            return PythiaPrefetcher(config)
        return make_cbws_variant(config, hybrid=PARAMETRIC_FAMILIES[base])
    try:
        factory = PREFETCHER_FACTORIES[name]
    except KeyError:
        known = ", ".join(PAPER_PREFETCHER_ORDER)
        raise ConfigError(f"unknown prefetcher {name!r}; known: {known}") from None
    return factory()


def make_cbws_variant(config: CbwsConfig, hybrid: bool = False) -> Prefetcher:
    """Build a CBWS(-based) prefetcher with a custom geometry, used by
    the ablation experiments."""
    if hybrid:
        return CbwsSmsPrefetcher(cbws_config=config)
    return CbwsPrefetcher(config)
