"""External-trace ingestion: decoders, recovery, conversion, ext: workloads.

The frozen fixture under ``tests/fixtures/ingest/`` was generated by
``tools/make_fixture_trace.py`` from IR kernel traces, so its loop
structure is known ground truth: the sidecar ``.truth.json`` pins the
per-access in-loop membership, the expected post-recovery content
digest, and the measured coverage.  These tests replay it end to end —
raw and ``.xz`` — and assert the acceptance bar (≥ 80% of in-loop
accesses inside recovered blocks, zero false marks, bit-stable digests).
"""

from __future__ import annotations

import io
import json
import lzma
import gzip
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import (
    IngestError,
    IngestFormatError,
    IngestRegistryError,
    ReproError,
    TraceError,
    WorkloadError,
)
from repro.check.ingest import (
    check_recovery_determinism,
    check_reingest_stability,
)
from repro.exec.keys import sim_key, trace_key
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.ingest.convert import StreamingTraceWriter, ingest_trace
from repro.ingest.formats import (
    Instr,
    decode,
    detect_format,
    iter_champsim,
    iter_csv,
    pack_champsim,
    pack_csv,
    sniff_compression,
)
from repro.ingest.recover import RecoveryConfig, RecoveryStats, recover_blocks
from repro.ingest.store import (
    IngestStore,
    derive_name,
    truncate_to_accesses,
)
from repro.trace.events import (
    BLOCK_BEGIN,
    BLOCK_END,
    MEMORY_ACCESS,
    BlockBegin,
    BlockEnd,
    MemoryAccess,
)
from repro.trace.io import read_trace, trace_to_bytes
from repro.trace.stream import Trace
from repro.workloads import build_trace, get_workload

FIXTURE = Path(__file__).parent / "fixtures" / "ingest" / "fixture.champsimtrace"
FIXTURE_XZ = FIXTURE.with_name(FIXTURE.name + ".xz")
TRUTH = json.loads(FIXTURE.with_name(FIXTURE.name + ".truth.json").read_text())


def loop_instrs(iterations: int = 50, head: int = 0x1000,
                start_icount: int = 0) -> list[Instr]:
    """A textbook counted loop: head access, body store, back-edge."""
    instrs = []
    icount = start_icount
    for iteration in range(iterations):
        instrs.append(Instr(icount, head, loads=(0x80000 + iteration * 64,)))
        icount += 1
        instrs.append(Instr(icount, head + 0x10,
                            stores=(0x90000 + iteration * 64,)))
        icount += 1
        instrs.append(Instr(icount, head + 0x40, is_branch=True,
                            taken=(iteration < iterations - 1)))
        icount += 1
    return instrs


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh ingest store that every layer (keys, workloads, CLI)
    resolves through the environment, with the in-memory trace cache
    isolated."""
    root = tmp_path / "ingest-store"
    monkeypatch.setenv("REPRO_INGEST_STORE", str(root))
    clear_trace_cache()
    yield IngestStore(root)
    clear_trace_cache()


# -- decoders ---------------------------------------------------------------


@st.composite
def champsim_streams(draw):
    count = draw(st.integers(min_value=1, max_value=50))
    addresses = st.integers(min_value=1, max_value=2**64 - 1)
    instrs = []
    for index in range(count):
        is_branch = draw(st.booleans())
        taken = is_branch and draw(st.booleans())
        instrs.append(Instr(
            index,
            draw(st.integers(min_value=0, max_value=2**64 - 1)),
            loads=tuple(draw(st.lists(addresses, max_size=4))),
            stores=tuple(draw(st.lists(addresses, max_size=2))),
            is_branch=is_branch,
            taken=taken,
        ))
    return instrs


class TestChampsimDecoder:
    @settings(max_examples=50)
    @given(champsim_streams())
    def test_encode_decode_round_trip(self, instrs):
        data = b"".join(pack_champsim(instr) for instr in instrs)
        assert list(iter_champsim(io.BytesIO(data))) == instrs

    def test_record_width_is_champsim_canonical(self):
        assert len(pack_champsim(Instr(0, 0x400000))) == 64

    def test_trailing_partial_record_rejected(self):
        data = b"".join(pack_champsim(i) for i in loop_instrs(2))
        with pytest.raises(IngestFormatError, match="truncated"):
            list(iter_champsim(io.BytesIO(data[:-7])))

    def test_bad_flag_byte_names_record(self):
        data = bytearray(pack_champsim(Instr(0, 0x400000)) * 3)
        data[2 * 64 + 8] = 7  # third record's is_branch byte
        with pytest.raises(IngestFormatError, match="record 2"):
            list(iter_champsim(io.BytesIO(bytes(data))))

    def test_taken_without_branch_rejected(self):
        data = bytearray(pack_champsim(Instr(0, 0x400000)))
        data[9] = 1  # branch_taken without is_branch
        with pytest.raises(IngestFormatError, match="non-branch"):
            list(iter_champsim(io.BytesIO(bytes(data))))

    def test_empty_stream_rejected(self):
        with pytest.raises(IngestFormatError, match="no records"):
            list(iter_champsim(io.BytesIO(b"")))

    def test_encoder_rejects_overfull_record(self):
        with pytest.raises(IngestFormatError, match="4 loads"):
            pack_champsim(Instr(0, 0, loads=(1, 2, 3, 4, 5)))


@st.composite
def csv_streams(draw):
    count = draw(st.integers(min_value=1, max_value=50))
    explicit = draw(st.booleans())
    instrs = []
    icount = 0
    for index in range(count):
        if explicit:
            icount += draw(st.integers(min_value=0, max_value=5))
        is_write = draw(st.booleans())
        address = (draw(st.integers(min_value=1, max_value=2**48)),)
        instrs.append(Instr(
            icount if explicit else index,
            draw(st.integers(min_value=0, max_value=2**48)),
            loads=() if is_write else address,
            stores=address if is_write else (),
        ))
    return instrs, explicit


class TestCsvDecoder:
    @settings(max_examples=50)
    @given(csv_streams())
    def test_encode_decode_round_trip(self, stream):
        instrs, explicit = stream
        text = pack_csv(instrs, explicit_icount=explicit)
        assert list(iter_csv(io.BytesIO(text.encode()))) == instrs

    def test_comments_and_header_skipped(self):
        text = "# a comment\npc,address,is_write\n0x10,0x100,0\n"
        [instr] = list(iter_csv(io.BytesIO(text.encode())))
        assert instr == Instr(0, 0x10, loads=(0x100,))

    def test_non_monotonic_icount_names_line_and_event(self):
        text = "0x10,0x100,0,5\n0x10,0x200,0,3\n"
        with pytest.raises(IngestFormatError,
                           match=r"line 2 \(event 1\): icount decreases"):
            list(iter_csv(io.BytesIO(text.encode())))

    def test_zero_address_reserved(self):
        with pytest.raises(IngestFormatError, match="reserved"):
            list(iter_csv(io.BytesIO(b"0x10,0x0\n")))

    def test_bad_field_count_rejected(self):
        with pytest.raises(IngestFormatError, match="line 1"):
            list(iter_csv(io.BytesIO(b"0x10\n")))

    def test_binary_garbage_rejected_as_not_utf8(self):
        with pytest.raises(IngestFormatError, match="UTF-8"):
            list(iter_csv(io.BytesIO(b"\xff\xfe\x00\x01\n")))

    def test_empty_input_rejected(self):
        with pytest.raises(IngestFormatError, match="no accesses"):
            list(iter_csv(io.BytesIO(b"# nothing\n")))


class TestCompressionAndDetection:
    def test_magic_byte_sniffing(self, tmp_path):
        raw = tmp_path / "a.bin"
        raw.write_bytes(b"hello world")
        compressed_xz = tmp_path / "b.bin"
        compressed_xz.write_bytes(lzma.compress(b"hello world"))
        compressed_gz = tmp_path / "c.bin"
        compressed_gz.write_bytes(gzip.compress(b"hello world"))
        assert sniff_compression(raw) is None
        assert sniff_compression(compressed_xz) == "xz"
        assert sniff_compression(compressed_gz) == "gz"

    @pytest.mark.parametrize("suffix", ["", ".xz", ".gz"])
    def test_decode_transparently_decompresses(self, tmp_path, suffix):
        instrs = loop_instrs(5)
        raw = b"".join(pack_champsim(instr) for instr in instrs)
        if suffix == ".xz":
            raw = lzma.compress(raw)
        elif suffix == ".gz":
            raw = gzip.compress(raw)
        path = tmp_path / f"loop.champsimtrace{suffix}"
        path.write_bytes(raw)
        assert list(decode(path)) == instrs

    def test_format_detection_by_suffix(self, tmp_path):
        assert detect_format("a.champsimtrace") == "champsim"
        assert detect_format("a.champsimtrace.xz") == "champsim"
        assert detect_format("a.csv.gz") == "csv"
        with pytest.raises(IngestFormatError, match="--format"):
            detect_format("a.mystery")


# -- recovery ---------------------------------------------------------------


def marked_flags(events) -> list[bool]:
    """Per-access in-recovered-block flags, in access order."""
    flags = []
    inside = False
    for event in events:
        if event.kind == BLOCK_BEGIN:
            inside = True
        elif event.kind == BLOCK_END:
            inside = False
        else:
            flags.append(inside)
    return flags


_CSV_FIELDS = st.one_of(
    st.integers(min_value=-2, max_value=2**70).map(str),
    st.integers(min_value=0, max_value=2**70).map(hex),
    st.sampled_from(["", "0x", "pc", "1e3", "0_1", " 7 ", "\u0661"]),
    st.text(max_size=3),
)
_CSV_LINES = st.lists(_CSV_FIELDS, min_size=1, max_size=5).map(",".join)


class TestMalformedInput:
    """Whatever bytes reach a decoder, decoding, marker recovery and
    the columnar trace's construction and validation fail only with
    typed ``ReproError``s."""

    @staticmethod
    def _ingest(instrs):
        stats = RecoveryStats()
        events = recover_blocks(
            instrs, RecoveryConfig(min_iterations=1, infer_backedges=True),
            stats)
        Trace("fuzz", list(events), stats.instructions).validate()

    @settings(max_examples=150, deadline=None)
    @given(valid=champsim_streams(),
           records=st.lists(st.binary(min_size=64, max_size=64), max_size=8),
           tail=st.binary(max_size=70))
    @example(valid=[], records=[], tail=b"")
    @example(valid=[], records=[bytes(8) + b"\x02" + bytes(55)], tail=b"")
    def test_champsim_bytes_fail_typed(self, valid, records, tail):
        data = b"".join(map(pack_champsim, valid)) + b"".join(records) + tail
        try:
            self._ingest(iter_champsim(io.BytesIO(data)))
        except ReproError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_CSV_LINES, max_size=6))
    @example(lines=["0x10,0x10000000000000000"])
    @example(lines=["0x10,0x100,0,18446744073709551616"])
    @example(lines=["0x10,0x100,0,5", "0x10,0x200,0,3"])
    def test_csv_text_fails_typed(self, lines):
        try:
            self._ingest(iter_csv(io.BytesIO("\n".join(lines).encode())))
        except ReproError:
            pass

    def test_address_beyond_u64_is_a_trace_error(self):
        instrs = iter_csv(io.BytesIO(b"0x10,0x10000000000000000\n"))
        with pytest.raises(TraceError, match="unsigned 64-bit"):
            self._ingest(instrs)


class TestRecovery:
    def test_simple_loop_recovers_most_iterations(self):
        stats = RecoveryStats()
        events = list(recover_blocks(loop_instrs(50), stats=stats))
        Trace("t", events, stats.instructions).validate()
        assert stats.coverage > 0.9
        assert stats.block_ids == 1
        # min_iterations=2 costs exactly the first two iterations.
        assert stats.block_instances == 48

    def test_markers_always_balanced_even_on_abrupt_end(self):
        # Stream ends while the loop body is still open.
        instrs = loop_instrs(20)[:-1]
        stats = RecoveryStats()
        events = list(recover_blocks(instrs, stats=stats))
        Trace("t", events, stats.instructions).validate()

    def test_block_ids_stable_across_runs(self):
        instrs = loop_instrs(10) + loop_instrs(
            10, head=0x2000, start_icount=30) + loop_instrs(
            10, head=0x1000, start_icount=60)
        first = [e for e in recover_blocks(instrs) if e.kind == BLOCK_BEGIN]
        second = [e for e in recover_blocks(instrs) if e.kind == BLOCK_BEGIN]
        assert [e.block_id for e in first] == [e.block_id for e in second]
        # Re-entering the first loop reuses its original id.
        assert first[0].block_id == first[-1].block_id

    def test_revisit_marks_from_first_iteration(self):
        # Second visit of a known-hot loop needs no warmup.
        instrs = loop_instrs(10) + loop_instrs(10, start_icount=30)
        stats = RecoveryStats()
        events = list(recover_blocks(instrs, stats=stats))
        # First visit loses its two warmup iterations (8 instances); the
        # second visit marks from its very first head — its opening
        # iteration rides the instance left open across the not-taken
        # exit branch, so 8 + 1 + 9 distinct instances.
        assert stats.block_instances == 17
        assert sum(marked_flags(events)) == stats.accesses_in_blocks == 36

    def test_non_monotonic_icount_rejected_by_record(self):
        instrs = [Instr(5, 0x10, loads=(0x100,)),
                  Instr(3, 0x20, loads=(0x200,))]
        with pytest.raises(IngestFormatError, match="record 1"):
            list(recover_blocks(instrs))

    def test_infer_backedges_mode_needs_no_branch_records(self):
        instrs = []
        icount = 0
        for iteration in range(20):
            instrs.append(Instr(icount, 0x10, loads=(0x1000 + 64 * iteration,)))
            icount += 1
            instrs.append(Instr(icount, 0x20, loads=(0x8000 + 64 * iteration,)))
            icount += 1
        stats = RecoveryStats()
        config = RecoveryConfig(infer_backedges=True)
        events = list(recover_blocks(instrs, config, stats))
        Trace("t", events, stats.instructions).validate()
        assert stats.coverage > 0.8

    def test_min_iterations_config_validated(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            RecoveryConfig(min_iterations=0)

    def test_determinism_differential_on_fixture(self):
        assert check_recovery_determinism(FIXTURE) == []


# -- streaming writer -------------------------------------------------------


class TestStreamingWriter:
    def test_bytes_identical_to_in_memory_writer(self, tmp_path):
        stats = RecoveryStats()
        events = list(recover_blocks(loop_instrs(30), stats=stats))
        path = tmp_path / "out.trace"
        with StreamingTraceWriter(path, "ext:x") as writer:
            for event in events:
                writer.append(event)
            writer.finalize(stats.instructions)
        expected = trace_to_bytes(Trace("ext:x", events, stats.instructions))
        assert path.read_bytes() == expected

    def test_streamed_file_reads_back(self, tmp_path):
        path = tmp_path / "out.trace"
        with StreamingTraceWriter(path, "ext:y") as writer:
            writer.append(BlockBegin(0, 1))
            writer.append(MemoryAccess(1, 0x10, 0x1000, False))
            writer.append(BlockEnd(2, 1))
            writer.finalize(3)
        trace = read_trace(path)
        assert trace.name == "ext:y"
        assert len(trace.events) == 3
        trace.validate()

    def test_decreasing_icount_rejected_by_event_index(self, tmp_path):
        with StreamingTraceWriter(tmp_path / "out.trace", "t") as writer:
            writer.append(MemoryAccess(5, 0x10, 0x1000, False))
            with pytest.raises(TraceError, match="event 1"):
                writer.append(MemoryAccess(4, 0x10, 0x1000, False))

    def test_abort_publishes_nothing(self, tmp_path):
        path = tmp_path / "out.trace"
        with StreamingTraceWriter(path, "t") as writer:
            writer.append(MemoryAccess(0, 0x10, 0x1000, False))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


# -- the frozen fixture -----------------------------------------------------


class TestFixtureReplay:
    def test_digest_stable_across_runs_and_compression(self, tmp_path, store):
        record_raw, _ = store.ingest(FIXTURE, name="fixture")
        other = IngestStore(tmp_path / "other-store")
        record_again, _ = other.ingest(FIXTURE, name="fixture")
        record_xz, _ = other.ingest(FIXTURE_XZ, name="fixture-xz")
        assert record_raw.digest == TRUTH["expected_digest"]
        assert record_again.digest == TRUTH["expected_digest"]
        assert record_xz.digest == TRUTH["expected_digest"]

    def test_reingest_stability_differential(self):
        assert check_reingest_stability(FIXTURE) == []

    def test_recovery_meets_coverage_bar_against_ground_truth(self, store):
        store.ingest(FIXTURE, name="fixture")
        trace = store.load_trace("fixture")
        trace.validate()
        marked = marked_flags(trace.events)
        truth = [bool(value)
                 for value, count in TRUTH["in_loop_runs"]
                 for _ in range(count)]
        assert len(marked) == len(truth)
        in_loop = sum(truth)
        covered = sum(1 for t, m in zip(truth, marked) if t and m)
        false_marks = sum(1 for t, m in zip(truth, marked) if not t and m)
        # The acceptance bar: >= 80% of ground-truth in-loop accesses
        # land inside recovered blocks, with no non-loop access marked.
        assert covered / in_loop >= 0.80
        assert false_marks == 0
        # And the sidecar pins the exact numbers, so silent drift in the
        # heuristic (better or worse) shows up as a diff to regenerate.
        assert covered == TRUTH["covered_in_loop_accesses"]
        assert in_loop == TRUTH["in_loop_accesses"]

    def test_ingest_report_stats_match_sidecar(self, store):
        _, stats = store.ingest(FIXTURE, name="fixture")
        assert stats.records == TRUTH["records"]
        assert stats.accesses == TRUTH["accesses"]
        rendered = stats.render()
        assert "coverage" in rendered
        assert str(stats.accesses_in_blocks) in rendered


# -- the ingest store -------------------------------------------------------


class TestIngestStore:
    def test_default_name_derived_from_filename(self):
        assert derive_name("dir/astar-313B.champsimtrace.xz") == "astar-313B"
        assert derive_name("weird name!.csv") == "weird-name"

    def test_conflicting_reingest_refused_without_force(self, tmp_path, store):
        store.ingest(FIXTURE, name="fixture")
        other = tmp_path / "other.champsimtrace"
        other.write_bytes(
            b"".join(pack_champsim(i) for i in loop_instrs(30)))
        with pytest.raises(IngestRegistryError, match="--force"):
            store.ingest(other, name="fixture")
        record, _ = store.ingest(other, name="fixture", force=True)
        assert record.digest != TRUTH["expected_digest"]
        # The old digest-named file is gone; the registry points at the new.
        assert store.trace_path("fixture").exists()
        assert len(list(store.root.glob("*.trace"))) == 1

    def test_unknown_name_lists_known(self, store):
        with pytest.raises(IngestRegistryError, match="known"):
            store.get("nope")

    def test_corrupt_registry_is_typed(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        store.registry_path.write_text("{nope")
        with pytest.raises(IngestRegistryError, match="registry"):
            store.names()

    def test_truncation_balances_open_blocks(self):
        events = [BlockBegin(0, 7),
                  MemoryAccess(1, 0x10, 0x1000, False),
                  MemoryAccess(2, 0x10, 0x2000, False),
                  BlockEnd(3, 7),
                  BlockBegin(4, 7),
                  MemoryAccess(5, 0x10, 0x3000, False),
                  BlockEnd(6, 7)]
        trace = Trace("t", events, 7)
        cut = truncate_to_accesses(trace, 1)
        cut.validate()
        assert sum(1 for e in cut.events if e.kind == MEMORY_ACCESS) == 1
        assert cut.events[-1].kind == BLOCK_END
        # A budget >= the access count returns the identical trace.
        assert truncate_to_accesses(trace, 99) is trace

    def test_empty_trace_rejected(self, tmp_path, store):
        empty = tmp_path / "empty.champsimtrace"
        empty.write_bytes(pack_champsim(Instr(0, 0x400000)))  # no accesses
        with pytest.raises(IngestFormatError, match="zero memory accesses"):
            store.ingest(empty, name="empty")

    def test_ingest_errors_classify_permanent(self):
        from repro.common.errors import ErrorKind, classify_error

        assert classify_error(IngestFormatError("x")) is ErrorKind.PERMANENT
        assert classify_error(IngestRegistryError("x")) is ErrorKind.PERMANENT
        assert isinstance(IngestFormatError("x"), IngestError)


# -- ext: workloads through the stack ---------------------------------------


class TestExtWorkloads:
    def test_get_workload_fabricates_spec(self, store):
        store.ingest(FIXTURE, name="fixture")
        spec = get_workload("ext:fixture")
        assert spec.group == "ext"
        assert spec.default_accesses == TRUTH["accesses"]
        with pytest.raises(WorkloadError):
            spec.build(1.0)

    def test_unknown_ext_workload_is_workload_error(self, store):
        with pytest.raises(WorkloadError, match="fixture"):
            get_workload("ext:fixture")

    def test_build_trace_honors_access_budget(self, store):
        store.ingest(FIXTURE, name="fixture")
        spec = get_workload("ext:fixture")
        trace = build_trace(spec, max_accesses=100)
        trace.validate()
        assert sum(1 for e in trace.events if e.kind == MEMORY_ACCESS) == 100

    def test_cache_keys_follow_content(self, tmp_path, store):
        store.ingest(FIXTURE, name="fixture")
        key_before = trace_key("ext:fixture", 1.0, 1.0, 0)
        sim_before = sim_key("ext:fixture", "stride", 1.0, 1.0, 0, None)
        other = tmp_path / "other.champsimtrace"
        other.write_bytes(
            b"".join(pack_champsim(i) for i in loop_instrs(30)))
        store.ingest(other, name="fixture", force=True)
        assert trace_key("ext:fixture", 1.0, 1.0, 0) != key_before
        assert sim_key("ext:fixture", "stride", 1.0, 1.0, 0, None) != sim_before
        # Synthetic workload keys are untouched by the ext salt.
        assert trace_key("nw", 1.0, 1.0, 0) == trace_key("nw", 1.0, 1.0, 0)

    def test_forced_reingest_is_never_served_stale(self, tmp_path, store):
        # The in-memory trace LRU is keyed by content: after --force the
        # name must resolve to the new trace, not the one cached before.
        store.ingest(FIXTURE, name="fixture")
        before = GridRunner().trace("ext:fixture")
        other = tmp_path / "other.champsimtrace"
        other.write_bytes(
            b"".join(pack_champsim(i) for i in loop_instrs(30)))
        store.ingest(other, name="fixture", force=True)
        after = GridRunner().trace("ext:fixture")
        assert after is not before
        assert after.events == build_trace(get_workload("ext:fixture")).events
        assert len(after.events) < len(before.events)
        result = GridRunner().run_one("ext:fixture", "stride")
        assert result.demand_accesses == 30 * 2

    def test_runs_through_grid_runner(self, store):
        store.ingest(FIXTURE, name="fixture")
        runner = GridRunner(budget_fraction=0.7, jobs=1)
        grid = runner.run_grid(["ext:fixture"], ["no-prefetch", "stride"])
        for prefetcher in ("no-prefetch", "stride"):
            result = grid.get("ext:fixture", prefetcher)
            assert not result.degraded
            assert result.ipc > 0

    def test_runs_through_campaign_axis(self, tmp_path, store):
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import SPEC_VERSION, parse_spec

        store.ingest(FIXTURE, name="fixture")
        spec = parse_spec({
            "version": SPEC_VERSION,
            "name": "ext-campaign",
            "base": {
                "workloads": ["ext:fixture"],
                "prefetchers": ["no-prefetch", "stride"],
                "budget_fraction": 0.7,
            },
            "axes": [{"name": "l2_kb", "values": [64, 128]}],
        })
        outcome = run_campaign(spec, tmp_path / "campaign-cache", jobs=1)
        assert outcome.status == "complete"
        assert outcome.cells_total == 4

    def test_serve_admission_resolves_ext(self, tmp_path, store):
        from repro.serve.broker import Broker
        from repro.serve.protocol import SimulateRequest

        store.ingest(FIXTURE, name="fixture")
        broker = Broker(workers=1, cache_dir=tmp_path / "serve-cache")
        job, deduplicated = broker.submit(SimulateRequest(
            workload="ext:fixture", prefetcher="stride",
            budget_fraction=0.7, seed=0))
        assert not deduplicated
        with pytest.raises(WorkloadError):
            broker.submit(SimulateRequest(
                workload="ext:missing", prefetcher="stride",
                budget_fraction=0.7, seed=0))


class TestIngestCli:
    def test_ingest_info_run_round_trip(self, store, capsys):
        from repro.cli import main

        assert main(["ingest", str(FIXTURE), "--name", "fix",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "ext:fix" in out
        assert "marker recovery report" in out
        assert TRUTH["expected_digest"] in out

        assert main(["trace", "info", "ext:fix"]) == 0
        out = capsys.readouterr().out
        assert TRUTH["expected_digest"] in out

        assert main(["run", "--workload", "ext:fix",
                     "--prefetcher", "no-prefetch",
                     "--jobs", "1", "--budget-fraction", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "ext:fix" in out

    def test_list_workloads_shows_ingested(self, store, capsys):
        from repro.cli import main

        store.ingest(FIXTURE, name="fix")
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "ext:fix" in out

    def test_trace_command_still_requires_flags(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
        assert "requires --workload" in capsys.readouterr().err
