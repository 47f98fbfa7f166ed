"""Campaign spec language: parsing, constraints, planning edge cases."""

import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign.cells import KNOWN_PARAMS, build_cell
from repro.campaign.planner import expand_points, plan_campaign
from repro.campaign.spec import (
    SPEC_VERSION,
    Constraint,
    load_spec,
    parse_spec,
    spec_fingerprint,
)
from repro.common.errors import (
    CampaignError,
    ConfigError,
    ReproError,
    SpecError,
)
from repro.sim.config import REDUCED_CONFIG, resolve_cell_config


def minimal_document(**overrides):
    document = {
        "version": SPEC_VERSION,
        "name": "test",
        "base": {
            "workloads": ["nw"],
            "prefetchers": ["stride", "cbws"],
            "budget_fraction": 0.02,
        },
        "axes": [
            {"name": "cbws.table_entries", "log2_range": [1, 8]},
            {"name": "l2_kb", "values": [64, 128]},
        ],
    }
    document.update(overrides)
    return document


class TestAxisForms:
    def test_values_form(self):
        spec = parse_spec(minimal_document(
            axes=[{"name": "l2_kb", "values": [64, 128, 256]}]))
        assert spec.axis("l2_kb").values == (64, 128, 256)
        assert spec.axis("l2_kb").spacing == "linear"

    def test_range_form_is_inclusive(self):
        spec = parse_spec(minimal_document(
            axes=[{"name": "prefetch.max_in_flight", "range": [1, 4, 1]}]))
        assert spec.axis("prefetch.max_in_flight").values == (1, 2, 3, 4)

    def test_log2_range_expands_powers_of_two(self):
        spec = parse_spec(minimal_document(
            axes=[{"name": "cbws.table_entries", "log2_range": [1, 64]}]))
        axis = spec.axis("cbws.table_entries")
        assert axis.values == (1, 2, 4, 8, 16, 32, 64)
        assert axis.spacing == "log2"

    def test_log2_range_rejects_non_powers(self):
        with pytest.raises(SpecError, match="powers of two"):
            parse_spec(minimal_document(
                axes=[{"name": "cbws.table_entries", "log2_range": [1, 48]}]))

    def test_exactly_one_value_form(self):
        with pytest.raises(SpecError, match="exactly one"):
            parse_spec(minimal_document(
                axes=[{"name": "l2_kb", "values": [64],
                       "range": [1, 2, 1]}]))
        with pytest.raises(SpecError, match="exactly one"):
            parse_spec(minimal_document(axes=[{"name": "l2_kb"}]))

    def test_duplicate_values_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec(minimal_document(
                axes=[{"name": "l2_kb", "values": [64, 64]}]))

    def test_unknown_axis_path_rejected(self):
        with pytest.raises(SpecError, match="not a sweepable parameter"):
            parse_spec(minimal_document(
                axes=[{"name": "no.such.knob", "values": [1]}]))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(SpecError, match="duplicate axis"):
            parse_spec(minimal_document(
                axes=[{"name": "l2_kb", "values": [64]},
                      {"name": "l2_kb", "values": [128]}]))

    def test_single_point_axis(self):
        spec = parse_spec(minimal_document(
            axes=[{"name": "l2_kb", "values": [64]}]))
        plan = plan_campaign(spec)
        # 1 workload x 2 prefetchers x 1 point.
        assert plan.candidates == 2
        assert len(plan.cells) == 2

    def test_empty_axes_is_the_base_grid(self):
        spec = parse_spec(minimal_document(axes=[]))
        assert list(expand_points(spec.axes)) == [{}]
        plan = plan_campaign(spec)
        assert plan.candidates == 2  # workloads x prefetchers, one point


class TestCombinators:
    def test_zip_axes_advance_in_lockstep(self):
        spec = parse_spec(minimal_document(axes=[
            {"name": "l1_kb", "values": [4, 8], "combine": "zip"},
            {"name": "l2_kb", "values": [64, 128], "combine": "zip"},
            {"name": "prefetch.max_in_flight", "values": [1, 2]},
        ]))
        points = list(expand_points(spec.axes))
        pairs = {(p["l1_kb"], p["l2_kb"]) for p in points}
        assert pairs == {(4, 64), (8, 128)}  # no (4, 128) cross terms
        assert len(points) == 4  # 2 zipped pairs x 2 cross values

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(SpecError, match="equal lengths"):
            parse_spec(minimal_document(axes=[
                {"name": "l1_kb", "values": [4, 8], "combine": "zip"},
                {"name": "l2_kb", "values": [64], "combine": "zip"},
            ]))

    def test_cross_product_size(self):
        spec = parse_spec(minimal_document())
        assert len(list(expand_points(spec.axes))) == 4 * 2  # log2 1..8 x 2


class TestConstraints:
    def evaluate(self, expr, params):
        return Constraint.parse(expr).evaluate(params)

    def test_comparison_and_builtin(self):
        assert self.evaluate("is_pow2(l2_kb) and l2_kb >= 64",
                             {"l2_kb": 128})
        assert not self.evaluate("l2_kb < 64", {"l2_kb": 128})

    def test_arithmetic(self):
        assert self.evaluate("l2_kb // l1_kb == 32",
                             {"l2_kb": 128, "l1_kb": 4})

    def test_membership(self):
        assert self.evaluate("l2_kb in (64, 128)", {"l2_kb": 64})

    def test_unknown_parameter_lists_known(self):
        with pytest.raises(SpecError, match="unknown parameter 'bogus'"):
            self.evaluate("bogus > 1", {"l2_kb": 64})

    def test_disallowed_constructs_rejected(self):
        for expr in ("__import__('os')", "lambda: 1", "[x for x in y]",
                     "f'{x}'"):
            with pytest.raises(SpecError, match="disallowed|not a valid"):
                Constraint.parse(expr)

    def test_prune_all_is_an_error(self):
        spec = parse_spec(minimal_document(
            constraints=["l2_kb > 100000"]))
        with pytest.raises(SpecError, match="prune"):
            plan_campaign(spec)

    def test_partial_prune(self):
        spec = parse_spec(minimal_document(constraints=["l2_kb == 64"]))
        plan = plan_campaign(spec)
        assert plan.pruned > 0
        assert all(cell.coord("l2_kb") == 64 for cell in plan.cells)


class TestSpecDocument:
    def test_version_is_mandatory_and_checked(self):
        with pytest.raises(SpecError, match="version"):
            parse_spec(minimal_document(version=SPEC_VERSION + 1))
        document = minimal_document()
        del document["version"]
        with pytest.raises(SpecError, match="version"):
            parse_spec(document)

    def test_unknown_fields_rejected_at_every_level(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            parse_spec(minimal_document(bogus=1))
        document = minimal_document()
        document["base"]["bogus"] = 1
        with pytest.raises(SpecError, match="unknown base field"):
            parse_spec(document)
        with pytest.raises(SpecError, match="unknown axis field"):
            parse_spec(minimal_document(
                axes=[{"name": "l2_kb", "values": [64], "bogus": 1}]))
        with pytest.raises(SpecError, match="unknown refine field"):
            parse_spec(minimal_document(refine={"bogus": 1}))

    def test_refine_axis_must_be_a_numeric_cross_axis(self):
        with pytest.raises(SpecError, match="unknown axis"):
            parse_spec(minimal_document(
                refine={"axes": ["prefetch.max_in_flight"]}))
        with pytest.raises(SpecError, match="cross axis"):
            parse_spec(minimal_document(
                axes=[{"name": "l1_kb", "values": [4, 8], "combine": "zip"},
                      {"name": "l2_kb", "values": [64, 128],
                       "combine": "zip"}],
                refine={"axes": ["l1_kb"]}))

    def test_refine_present_means_enabled(self):
        spec = parse_spec(minimal_document(
            refine={"axes": ["cbws.table_entries"]}))
        assert spec.refine.enabled
        assert not parse_spec(minimal_document()).refine.enabled

    def test_to_dict_round_trips_with_stable_fingerprint(self):
        spec = parse_spec(minimal_document(
            constraints=["l2_kb >= 64"],
            refine={"axes": ["cbws.table_entries"]}))
        echoed = parse_spec(spec.to_dict())
        assert spec_fingerprint(echoed) == spec_fingerprint(spec)
        assert echoed.axis("cbws.table_entries").spacing == "log2"

    def test_load_toml_and_json_agree(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'version = 1\nname = "t"\n'
            '[base]\nworkloads = ["nw"]\nprefetchers = ["stride", "cbws"]\n'
            'budget_fraction = 0.02\n'
            '[[axes]]\nname = "l2_kb"\nvalues = [64, 128]\n'
        )
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(minimal_document(
            name="t",
            axes=[{"name": "l2_kb", "values": [64, 128]}])))
        assert (spec_fingerprint(load_spec(toml_path))
                == spec_fingerprint(load_spec(json_path)))

    def test_load_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("version: 1")
        with pytest.raises(SpecError, match="unsupported extension"):
            load_spec(path)


class TestPlanning:
    def test_baseline_cells_deduplicate_across_cbws_axis(self):
        spec = parse_spec(minimal_document())
        plan = plan_campaign(spec)
        # stride ignores cbws.table_entries, so its 4 x 2 candidates
        # collapse to 2 unique cells (one per l2_kb); cbws keeps all 8.
        assert plan.candidates == 16
        assert plan.deduplicated == 6
        assert len(plan.cells) == 10
        assert len(plan.samples) == 16  # every candidate stays a sample

    def test_duplicate_cells_across_zip_and_cross(self):
        spec = parse_spec(minimal_document(axes=[
            {"name": "cbws.table_entries", "values": [4, 8],
             "combine": "zip"},
            {"name": "cbws.max_step", "values": [1, 2], "combine": "zip"},
            {"name": "l2_kb", "values": [64, 128]},
        ]))
        plan = plan_campaign(spec)
        # stride collapses along both zipped cbws axes.
        assert plan.candidates == 8
        assert plan.deduplicated == 2
        assert len(plan.cells) == 6

    def test_keys_are_stable_across_plans(self):
        spec = parse_spec(minimal_document())
        first = [cell.request.node(REDUCED_CONFIG).key for cell in
                 plan_campaign(spec).cells]
        second = [cell.request.node(REDUCED_CONFIG).key for cell in
                  plan_campaign(spec).cells]
        assert first == second

    def test_invalid_corner_names_coords(self):
        # 4 KiB is not divisible by 3 ways x 64-byte lines.
        spec = parse_spec(minimal_document(
            axes=[{"name": "l1.associativity", "values": [3]}]))
        with pytest.raises(CampaignError, match="l1.associativity"):
            plan_campaign(spec)


class TestCells:
    def test_overrides_resolve_into_config(self):
        cell = build_cell(
            "nw", "cbws", {"l2_kb": 256, "cbws.table_entries": 4},
            scale=1.0, budget_fraction=0.02, seed=0, base=REDUCED_CONFIG,
        )
        config = resolve_cell_config(cell.request.overrides, REDUCED_CONFIG)
        assert cell.request.node(REDUCED_CONFIG).config == config
        assert config.hierarchy.l2.size_bytes == 256 * 1024
        assert cell.request.prefetcher == "cbws[table_entries=4]"

    def test_cbws_axis_wins_over_base_name_params(self):
        cell = build_cell(
            "nw", "cbws[table_entries=2]", {"cbws.table_entries": 8},
            scale=1.0, budget_fraction=0.02, seed=0, base=REDUCED_CONFIG,
        )
        assert cell.request.prefetcher == "cbws[table_entries=8]"

    def test_line_size_is_not_an_override(self):
        assert "line_size" not in KNOWN_PARAMS
        with pytest.raises(ConfigError, match="line_size"):
            resolve_cell_config({"line_size": 128})

    def test_cache_shape_cells_are_expressible_on_the_wire(self):
        """Every config path a campaign sweeps travels in a serve
        request: the cell's request survives the wire unchanged."""
        from repro.serve.protocol import SimulateRequest, dumps, loads

        cell = build_cell(
            "nw", "stride", {"l1.associativity": 8, "l2.mshrs": 16},
            scale=1.0, budget_fraction=0.02, seed=0, base=REDUCED_CONFIG,
        )
        wire = loads(dumps(cell.request.to_dict()))
        assert wire["config"] == {"l1": {"associativity": 8},
                                  "l2": {"mshrs": 16}}
        assert SimulateRequest.from_dict(wire) == cell.request

    def test_to_dict_keeps_the_flat_journal_layout(self):
        cell = build_cell(
            "nw", "cbws", {"l1_kb": 8, "cbws.table_entries": 4},
            scale=1.0, budget_fraction=0.02, seed=3, wave=2,
            base=REDUCED_CONFIG,
        )
        assert cell.to_dict() == {
            "workload": "nw",
            "prefetcher": "cbws[table_entries=4]",
            "scale": 1.0,
            "budget_fraction": 0.02,
            "seed": 3,
            "overrides": [["l1_kb", 8]],
            "coords": [["cbws.table_entries", 4], ["l1_kb", 8]],
            "wave": 2,
        }

    def test_known_params_cover_all_axis_families(self):
        assert "l1_kb" in KNOWN_PARAMS
        assert "cbws.table_entries" in KNOWN_PARAMS
        assert "core.memory_latency" in KNOWN_PARAMS or any(
            p.startswith("core.") for p in KNOWN_PARAMS)
        assert "pangloss.degree" in KNOWN_PARAMS
        assert "pythia.alpha" in KNOWN_PARAMS

    def test_learned_axes_fold_into_name_with_types(self):
        cell = build_cell(
            "nw", "pythia", {"pythia.alpha": 0.065, "pythia.gamma": 0.556},
            scale=1.0, budget_fraction=0.02, seed=0, base=REDUCED_CONFIG,
        )
        # gamma=0.556 is the family default and drops out of the name.
        assert cell.request.prefetcher == "pythia[alpha=0.065]"

    def test_learned_axes_are_noops_off_family(self):
        cell = build_cell(
            "nw", "pangloss", {"pythia.alpha": 0.065},
            scale=1.0, budget_fraction=0.02, seed=0, base=REDUCED_CONFIG,
        )
        assert cell.request.prefetcher == "pangloss"


# -- fuzzed spec documents ---------------------------------------------------

_NAMES = st.sampled_from(
    ["l1_kb", "l2_kb", "seed", "scale", "budget_fraction",
     "l1.associativity", "core.rob_entries", "cbws.table_entries",
     "pythia.alpha", "line_size", "bogus"])
_SCALARS = st.one_of(
    st.integers(-2, 300), st.floats(-1.0, 300.0, allow_nan=False),
    st.sampled_from(["nw", "", "4"]), st.booleans())
_BOUNDS = st.one_of(st.integers(-2, 8), st.sampled_from([0.5, "x", True]))
_AXES = st.one_of(
    st.fixed_dictionaries({
        "name": _NAMES, "values": st.lists(_SCALARS, max_size=3)}),
    st.fixed_dictionaries({
        "name": _NAMES, "range": st.lists(_BOUNDS, min_size=2, max_size=4)}),
    st.fixed_dictionaries({
        "name": _NAMES,
        "log2_range": st.lists(_BOUNDS, min_size=1, max_size=3)}),
)
_ATOMS = st.one_of(
    st.sampled_from(["l1_kb", "l2_kb", "seed", "scale", "workload",
                     "cbws.table_entries", "bogus"]),
    st.integers(-1, 4).map(str), st.just("'nw'"), st.just("()"))
_EXPRESSIONS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(
        ["+", "-", "*", "/", "//", "%", "<", "==", "in", "and", "or"]),
        inner).map(" ".join),
    st.tuples(st.sampled_from(["min", "max", "abs", "is_pow2"]),
              st.lists(inner, min_size=1, max_size=2)).map(
        lambda call: f"{call[0]}({', '.join(call[1])})"),
), max_leaves=4)


def _document(axes, constraints, workloads, prefetchers):
    return {
        "version": SPEC_VERSION,
        "base": {"workloads": workloads, "prefetchers": prefetchers,
                 "budget_fraction": 0.02},
        "axes": axes,
        "constraints": constraints,
    }


class TestTypedErrors:
    """A spec document either plans or fails with a ``ReproError``."""

    @settings(max_examples=150, deadline=None)
    @given(
        axes=st.lists(_AXES, max_size=2),
        constraints=st.lists(_EXPRESSIONS, max_size=2),
        workloads=st.sampled_from([["nw"], ["nw", "no-such"]]),
        prefetchers=st.sampled_from(
            [["stride"], ["cbws", "sms"], ["cbws[max_step=4]", "bogus"]]),
    )
    @example(axes=[], constraints=["l1_kb/0"], workloads=["nw"],
             prefetchers=["stride"])
    @example(axes=[], constraints=["l1_kb % 0"], workloads=["nw"],
             prefetchers=["stride"])
    @example(axes=[], constraints=["min(l1_kb)"], workloads=["nw"],
             prefetchers=["stride"])
    @example(axes=[{"name": "l1_kb", "values": ["nw"]}], constraints=[],
             workloads=["nw"], prefetchers=["stride"])
    @example(axes=[{"name": "seed", "values": ["nw"]}], constraints=[],
             workloads=["nw"], prefetchers=["stride"])
    @example(axes=[], constraints=["l2_kb ** l2_kb ** l2_kb > 0"],
             workloads=["nw"], prefetchers=["stride"])
    @example(axes=[], constraints=["'x' * 4_000_000_000 == 'x'"],
             workloads=["nw"], prefetchers=["stride"])
    @example(axes=[], constraints=["-" * 5000 + "1 > 0"],
             workloads=["nw"], prefetchers=["stride"])
    @example(axes=[], constraints=["l1_kb" + " + l1_kb" * 3000 + " > 0"],
             workloads=["nw"], prefetchers=["stride"])
    def test_only_repro_errors_escape(self, axes, constraints, workloads,
                                      prefetchers):
        try:
            plan_campaign(parse_spec(
                _document(axes, constraints, workloads, prefetchers)))
        except ReproError:
            pass

    @pytest.mark.parametrize("expr", ["l1_kb/0", "l1_kb % 0", "min(l1_kb)"])
    def test_failing_constraint_is_a_spec_error(self, expr):
        spec = parse_spec(minimal_document(constraints=[expr]))
        with pytest.raises(SpecError, match=re.escape(repr(expr))):
            plan_campaign(spec)

    def test_power_is_not_a_constraint_operator(self):
        with pytest.raises(SpecError, match="disallowed construct"):
            parse_spec(minimal_document(
                constraints=["l2_kb ** l2_kb ** l2_kb > 0"]))

    @pytest.mark.parametrize("expr", ["'x' * 4_000_000_000 == 'x'",
                                      "workload + 'x' == 'nwx'"])
    def test_arithmetic_needs_numbers(self, expr):
        spec = parse_spec(minimal_document(constraints=[expr]))
        with pytest.raises(SpecError, match="only numbers"):
            plan_campaign(spec)

    @pytest.mark.parametrize("axis", ["l1_kb", "seed", "budget_fraction"])
    def test_mistyped_axis_value_is_a_spec_error(self, axis):
        with pytest.raises(SpecError, match=f"axis '{axis}'.*'nw'"):
            parse_spec(minimal_document(
                axes=[{"name": axis, "values": ["nw"]}]))
