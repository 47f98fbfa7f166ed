"""Wire-schema tests for :mod:`repro.serve.protocol`.

The golden fixtures under ``tests/fixtures/serve/`` pin the exact JSON
shape of version-1 requests and job views: a parse → serialize round
trip must reproduce each fixture byte-for-byte (modulo key order),
so any accidental wire change fails here before it breaks a client.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobStatus,
    JobView,
    ProtocolError,
    SimulateRequest,
    dumps,
    error_body,
    loads,
)
from repro.sim.config import REDUCED_CONFIG

FIXTURES = Path(__file__).parent / "fixtures" / "serve"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


class TestGoldenFixtures:
    @pytest.mark.parametrize(
        "name", ["request_minimal.json", "request_full.json"])
    def test_request_round_trips_exactly(self, name):
        document = load_fixture(name)
        request = SimulateRequest.from_dict(document)
        assert request.to_dict() == document

    @pytest.mark.parametrize(
        "name", ["job_view_done.json", "job_view_failed.json"])
    def test_job_view_round_trips_exactly(self, name):
        document = load_fixture(name)
        view = JobView.from_dict(document)
        assert view.to_dict() == document

    def test_full_request_resolves_overrides(self):
        request = SimulateRequest.from_dict(load_fixture("request_full.json"))
        config = request.node().config
        assert config.hierarchy.l1.size_bytes == 4 * 1024
        assert config.hierarchy.l2.size_bytes == 128 * 1024
        assert config.core.rob_entries == 64
        assert config.prefetch.issue_interval == 4
        assert config.prefetch.queue_capacity == 16

    def test_minimal_request_resolves_to_base(self):
        request = SimulateRequest.from_dict(
            load_fixture("request_minimal.json"))
        assert request.node().config == REDUCED_CONFIG


class TestRequestValidation:
    def _minimal(self, **overrides) -> dict:
        document = load_fixture("request_minimal.json")
        document.update(overrides)
        return document

    def test_missing_version_rejected(self):
        document = self._minimal()
        del document["version"]
        with pytest.raises(ProtocolError, match="version"):
            SimulateRequest.from_dict(document)

    @pytest.mark.parametrize("version", [0, 2, 99, -1])
    def test_unknown_version_rejected(self, version):
        with pytest.raises(ProtocolError, match="unsupported"):
            SimulateRequest.from_dict(self._minimal(version=version))

    @pytest.mark.parametrize("version", ["1", 1.0, True, None])
    def test_non_integer_version_rejected(self, version):
        with pytest.raises(ProtocolError):
            SimulateRequest.from_dict(self._minimal(version=version))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            SimulateRequest.from_dict(self._minimal(bogus=1))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            SimulateRequest.from_dict(
                self._minimal(config={"l3_kb": 1024}))

    def test_unknown_core_override_rejected(self):
        with pytest.raises(ProtocolError, match="no overridable field"):
            SimulateRequest.from_dict(
                self._minimal(config={"core": {"warp_drive": 9}}))

    @pytest.mark.parametrize("payload", [
        None, [], "x", 42,
    ])
    def test_non_object_body_rejected(self, payload):
        with pytest.raises(ProtocolError, match="JSON object"):
            SimulateRequest.from_dict(payload)

    @pytest.mark.parametrize("field,value", [
        ("workload", ""),
        ("workload", 3),
        ("prefetcher", None),
        ("scale", 0),
        ("scale", -1.0),
        ("scale", float("inf")),
        ("scale", "big"),
        ("budget_fraction", 0.0),
        ("budget_fraction", 1.5),
        ("seed", 1.5),
        ("seed", True),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ProtocolError):
            SimulateRequest.from_dict(self._minimal(**{field: value}))

    @pytest.mark.parametrize("config", [
        {"l1_kb": 0}, {"l1_kb": -4}, {"l2_kb": "128"},
        {"core": {"rob_entries": 1.5}}, {"core": []},
        "not-an-object",
    ])
    def test_bad_config_values_rejected(self, config):
        with pytest.raises(ProtocolError):
            SimulateRequest.from_dict(self._minimal(config=config))

    def test_override_order_does_not_matter(self):
        ab = SimulateRequest.from_dict(self._minimal(
            config={"prefetch": {"issue_interval": 4,
                                 "queue_capacity": 16}}))
        ba = SimulateRequest.from_dict(self._minimal(
            config={"prefetch": {"queue_capacity": 16,
                                 "issue_interval": 4}}))
        assert ab == ba
        assert ab.node().key == ba.node().key

    def test_equivalent_spellings_share_a_key(self):
        base = load_fixture("request_minimal.json")
        implicit = SimulateRequest.from_dict(base)
        spelled = SimulateRequest.from_dict(
            {**base, "config": {"l1_kb": 4, "l2_kb": 128}})
        # The reduced machine already has a 4 KB L1 / 128 KB L2, so the
        # explicit override resolves to the same SimConfig and key.
        assert implicit.node().key == spelled.node().key


class TestJobViewValidation:
    def _done(self, **overrides) -> dict:
        document = load_fixture("job_view_done.json")
        document.update(overrides)
        return document

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job status"):
            JobView.from_dict(self._done(status="exploded"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job field"):
            JobView.from_dict(self._done(surprise=True))

    @pytest.mark.parametrize("field,value", [
        ("deduplicated", "yes"),
        ("cache_hit", 1),
        ("wall_seconds", -1.0),
        ("wall_seconds", "fast"),
        ("result", [1, 2]),
        ("error", 500),
        ("job_id", ""),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ProtocolError):
            JobView.from_dict(self._done(**{field: value}))

    def test_terminal_property(self):
        assert JobStatus.DONE.terminal and JobStatus.FAILED.terminal
        assert not JobStatus.QUEUED.terminal
        assert not JobStatus.RUNNING.terminal


class TestEncoding:
    def test_dumps_loads_round_trip(self):
        document = error_body("busy", "queue full", retry_after=2.5)
        again = loads(dumps(document))
        assert again == document
        assert again["error"]["retry_after_seconds"] == 2.5

    def test_loads_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            loads(b"{nope")

    def test_loads_rejects_non_utf8(self):
        with pytest.raises(ProtocolError):
            loads(b"\xff\xfe{}")


_WORKLOADS = st.sampled_from(["nw", "stencil-default", "429.mcf-ref"])
_PREFETCHERS = st.sampled_from(["no-prefetch", "stride", "cbws", "cbws+sms"])
_OVERRIDE_INTS = st.integers(min_value=1, max_value=1 << 16)


def _requests() -> st.SearchStrategy[SimulateRequest]:
    return st.builds(
        SimulateRequest,
        workload=_WORKLOADS,
        prefetcher=_PREFETCHERS,
        scale=st.floats(min_value=0.01, max_value=8.0,
                        allow_nan=False, allow_infinity=False),
        budget_fraction=st.floats(min_value=0.001, max_value=1.0,
                                  allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31),
        overrides=st.fixed_dictionaries({}, optional={
            "l1_kb": st.integers(min_value=1, max_value=1024),
            "l2_kb": st.integers(min_value=1, max_value=4096),
            "core.rob_entries": _OVERRIDE_INTS,
            "core.width": _OVERRIDE_INTS,
            "prefetch.queue_capacity": _OVERRIDE_INTS,
            "prefetch.issue_interval": _OVERRIDE_INTS,
            "prefetch.max_in_flight": _OVERRIDE_INTS,
        }).map(lambda d: tuple(sorted(d.items()))),
    )


class TestPropertyRoundTrip:
    @given(request=_requests())
    def test_request_round_trip(self, request):
        wire = loads(dumps(request.to_dict()))
        assert SimulateRequest.from_dict(wire) == request

    @given(
        status=st.sampled_from(JobStatus),
        deduplicated=st.booleans(),
        cache_hit=st.one_of(st.none(), st.booleans()),
        wall_seconds=st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)),
        error=st.one_of(st.none(), st.text(max_size=40)),
    )
    def test_job_view_round_trip(self, status, deduplicated, cache_hit,
                                 wall_seconds, error):
        view = JobView(
            job_id="abc123",
            status=status,
            workload="nw",
            prefetcher="stride",
            key="f" * 32,
            deduplicated=deduplicated,
            cache_hit=cache_hit,
            wall_seconds=wall_seconds,
            error=error,
        )
        wire = loads(dumps(view.to_dict()))
        assert JobView.from_dict(wire) == view

    @given(request=_requests())
    def test_version_is_always_current(self, request):
        assert request.to_dict()["version"] == PROTOCOL_VERSION
