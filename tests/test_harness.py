"""Tests for the experiment harness: registry, runner, reporting."""

import pytest

from repro.common.errors import ConfigError
from repro.harness.registry import (
    PAPER_PREFETCHER_ORDER,
    canonical_prefetcher_name,
    make_cbws_variant,
    make_prefetcher,
)
from repro.harness.report import format_mapping, format_percent_table, format_table
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.core.predictor import CbwsConfig


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
        config = CbwsConfig(table_entries=8)
        standalone = make_cbws_variant(config)
        hybrid = make_cbws_variant(config, hybrid=True)
        assert standalone.config.table_entries == 8
        assert hybrid.cbws.config.table_entries == 8

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
