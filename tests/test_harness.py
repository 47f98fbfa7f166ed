"""Tests for the experiment harness: registry, runner, reporting."""

import pytest

from repro.campaign.cells import GEOMETRY_PARAMS, baseline_params
from repro.common.errors import ConfigError
from repro.harness.registry import (
    FAMILIES,
    PAPER_PREFETCHER_ORDER,
    apply_geometry,
    canonical_prefetcher_name,
    geometry_defaults,
    make_prefetcher,
)
from repro.harness.report import format_mapping, format_percent_table, format_table
from repro.harness.runner import GridRunner, clear_trace_cache

#: Every (base, field) a parametrized name may set.
FAMILY_FIELDS = [(base, field) for base, family in FAMILIES.items()
                 for field in family.fields]


def _config_of(prefetcher):
    """The family config a built prefetcher runs with."""
    return getattr(prefetcher, "cbws", prefetcher).config


def _other_value(value):
    """A value of ``value``'s type that differs from it."""
    if isinstance(value, str):
        return "pc+offset" if value == "pc+delta" else "pc+delta"
    if isinstance(value, float):
        return value / 2
    return value * 2 if value else 1


class TestRegistry:
    def test_all_seven_prefetchers(self):
        assert len(PAPER_PREFETCHER_ORDER) == 7
        for name in PAPER_PREFETCHER_ORDER:
            prefetcher = make_prefetcher(name)
            assert prefetcher.name == name

    def test_factories_build_fresh_instances(self):
        assert make_prefetcher("sms") is not make_prefetcher("sms")

    def test_unknown_prefetcher_raises(self):
        with pytest.raises(ConfigError, match="unknown prefetcher"):
            make_prefetcher("oracle")

    def test_cbws_variant_builder(self):
        standalone = make_prefetcher("cbws[table_entries=8]")
        hybrid = make_prefetcher("cbws+sms[table_entries=8]")
        assert standalone.name == "cbws"
        assert hybrid.name == "cbws+sms"
        assert standalone.config.table_entries == 8
        assert hybrid.cbws.config.table_entries == 8

    @pytest.mark.parametrize("base, field", FAMILY_FIELDS)
    def test_default_value_spelled_out_is_the_base(self, base, field):
        default = getattr(FAMILIES[base].config(), field)
        name = f"{base}[{field}={default}]"
        assert canonical_prefetcher_name(name) == base

    @pytest.mark.parametrize("base, field", FAMILY_FIELDS)
    def test_non_default_value_reaches_the_config(self, base, field):
        family = FAMILIES[base]
        value = _other_value(getattr(family.config(), field))
        if field == "predict_steps":
            value = 2  # must stay within max_step=4
        name = canonical_prefetcher_name(f"{base}[{field}={value}]")
        assert name == f"{base}[{field}={value}]"
        assert apply_geometry(base, {f"{family.prefix}.{field}": value}) \
            == name
        config = _config_of(make_prefetcher(name))
        assert isinstance(config, family.config)
        assert getattr(config, field) == value

    def test_campaign_paths_are_the_registrys(self):
        defaults = geometry_defaults()
        expected = {
            f"{family.prefix}.{field}": getattr(family.config(), field)
            for family in FAMILIES.values() for field in family.fields
        }
        assert defaults == expected
        assert GEOMETRY_PARAMS == set(expected)
        baseline = baseline_params()
        assert {path: baseline[path] for path in expected} == expected
        assert {"cbws.table_entries", "pangloss.degree",
                "pythia.alpha"} <= GEOMETRY_PARAMS

    def test_effective_default_parameters_are_dropped(self):
        # predict_steps defaults to min(4, max_step), so spelling that
        # value out names the same geometry.
        spelled = "cbws[max_step=2,predict_steps=2]"
        implied = "cbws[max_step=2]"
        assert canonical_prefetcher_name(spelled) == implied
        assert canonical_prefetcher_name(implied) == implied
        assert (make_prefetcher(spelled).config
                == make_prefetcher(implied).config)
        # A value off its effective default is kept.
        assert (canonical_prefetcher_name("cbws[max_step=2,predict_steps=1]")
                == "cbws[max_step=2,predict_steps=1]")
        assert canonical_prefetcher_name("cbws[predict_steps=2]") == \
            "cbws[predict_steps=2]"


class TestRunner:
    def test_trace_cached_in_memory(self, fresh_trace_cache):
        runner = GridRunner(budget_fraction=0.02)
        first = runner.trace("nw")
        second = runner.trace("nw")
        assert first is second

    def test_cache_key_includes_budget(self, fresh_trace_cache):
        small = GridRunner(budget_fraction=0.02).trace("nw")
        large = GridRunner(budget_fraction=0.04).trace("nw")
        assert len(large.events) > len(small.events)

    def test_disk_cache_round_trip(self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, cache_dir=tmp_path)
        original = runner.trace("nw")
        clear_trace_cache()
        reloaded = GridRunner(budget_fraction=0.02, cache_dir=tmp_path).trace("nw")
        assert reloaded.events == original.events

    def test_run_one_produces_result(self, tiny_runner):
        result = tiny_runner.run_one("nw", "sms")
        assert result.workload == "nw"
        assert result.prefetcher == "sms"
        assert result.cycles > 0

    def test_run_grid_shape(self, tiny_runner):
        grid = tiny_runner.run_grid(["nw"], ["no-prefetch", "sms"])
        assert len(grid) == 2
        assert grid.get("nw", "sms").ipc >= grid.get("nw", "no-prefetch").ipc


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["short", 1.5], ["a-much-longer-name", 2.0]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "1.500" in text
        # All data rows align to the same width.
        assert len(lines[2]) == len(lines[3]) == len(lines[4])

    def test_percent_table(self):
        text = format_percent_table(["name", "frac"], [["x", 0.5]])
        assert "50.0%" in text

    def test_format_mapping(self):
        text = format_mapping({"a": 1.0, "b": 2.0})
        assert "a" in text and "2.000" in text
