"""Tests for the standalone CBWS prefetcher and the CBWS+SMS hybrid."""

import pytest

from repro.common.errors import ConfigError
from repro.core.hybrid import CbwsSmsPrefetcher
from repro.core.prefetcher import CbwsPrefetcher
from repro.prefetchers.base import DemandInfo
from repro.sim.config import REDUCED_CONFIG
from repro.sim.engine import simulate
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
from repro.trace.stream import Trace


def access(line, pc=0x400000, l1_hit=False):
    return DemandInfo(
        pc=pc, line=line, address=line * 64,
        is_write=False, l1_hit=l1_hit, l2_hit=l1_hit,
    )


def block_trace(blocks, block_id=0, before=()):
    """A trace of ``before`` (lines accessed outside any block), then
    one block-bracketed run of accesses per entry of ``blocks``."""
    events = [MemoryAccess(0, 0x400000, line * 64, False) for line in before]
    for block in blocks:
        events.append(BlockBegin(0, block_id))
        events += [MemoryAccess(0, 0x400000, line * 64, False)
                   for line in block]
        events.append(BlockEnd(0, block_id))
    return Trace("blocks", events, 0)


def drive_blocks(prefetcher, blocks, block_id=0):
    """Replay block-bracketed accesses; return the last BLOCK_END output."""
    prefetcher.on_trace(block_trace(blocks, block_id), 6)
    predictions = []
    for _ in blocks:
        predictions = prefetcher.on_block_end(block_id)
    return predictions


def strided_blocks(count, stride=64, width=4):
    return [
        [1000 + stride * n + k * 200 for k in range(width)]
        for n in range(count)
    ]


class TestStandalone:
    def test_accesses_outside_blocks_are_invisible(self):
        prefetcher = CbwsPrefetcher()
        prefetcher.on_trace(block_trace([], before=range(100, 140)), 6)
        for line in range(100, 140):
            assert prefetcher.on_access(access(line)) == []
        predictor = prefetcher.stream.predictor
        assert predictor.stats.blocks_completed == 0
        assert predictor.current.lines == []

    def test_accesses_return_no_candidates_inline(self):
        """CBWS only issues at BLOCK_END, never mid-block."""
        prefetcher = CbwsPrefetcher()
        prefetcher.on_trace(block_trace([[1]]), 6)
        assert prefetcher.on_access(access(1)) == []

    def test_predicts_on_steady_blocks(self):
        prefetcher = CbwsPrefetcher()
        predictions = drive_blocks(prefetcher, strided_blocks(10))
        assert predictions
        assert prefetcher.stream.predictor.confident

    def test_silent_without_table_hit(self):
        import random

        rng = random.Random(0)
        prefetcher = CbwsPrefetcher()
        blocks = [[rng.randrange(1 << 28) for _ in range(4)]
                  for _ in range(6)]
        predictions = drive_blocks(prefetcher, blocks)
        assert predictions == []
        assert not prefetcher.stream.predictor.confident

    def test_tracks_l1_hits_too(self):
        """The compiler hints let CBWS trace *all* L1 accesses inside
        blocks, not just misses (Section II-A)."""
        prefetcher = CbwsPrefetcher()
        # Line 7 is loaded before the block, so the in-block access hits.
        trace = block_trace([[7]], before=[7])
        result = simulate(REDUCED_CONFIG, prefetcher, trace)
        assert result.l1_misses == 1
        assert prefetcher.stream.predictor.last_blocks.get(1) == (7,)

    def test_overflow_reported(self):
        prefetcher = CbwsPrefetcher()
        drive_blocks(prefetcher, [range(100, 130)])  # 30 distinct lines > 16
        assert prefetcher.stream.predictor.last_block_overflowed

    def test_reset(self):
        prefetcher = CbwsPrefetcher()
        drive_blocks(prefetcher, strided_blocks(8))
        prefetcher.reset()
        assert prefetcher.stream is None
        assert prefetcher.blocks_replayed == 0

    def test_block_end_needs_a_trace(self):
        with pytest.raises(ConfigError, match="before on_trace"):
            CbwsPrefetcher().on_block_end(0)

    def test_storage_under_paper_budget(self):
        assert CbwsPrefetcher().storage_bits() < 12_000  # ~1.1 KB


class TestHybrid:
    def test_sms_trains_outside_blocks(self):
        hybrid = CbwsSmsPrefetcher()
        # Train SMS with a full generation outside any block.
        hybrid.on_access(access(64, pc=9))
        hybrid.on_access(access(67, pc=9))
        hybrid.on_l1_eviction(64)
        # The trigger on a new region streams the learned pattern.
        assert hybrid.on_access(access(128, pc=9)) == [131]

    def test_cbws_predictions_take_priority(self):
        hybrid = CbwsSmsPrefetcher()
        predictions = drive_blocks(hybrid, strided_blocks(10))
        assert predictions  # CBWS path fires at BLOCK_END

    def test_owned_lines_filtered_from_sms(self):
        hybrid = CbwsSmsPrefetcher()
        predictions = drive_blocks(hybrid, strided_blocks(10))
        assert predictions
        owned = predictions[0]
        # Teach SMS a pattern whose streamed line collides with `owned`.
        region_base = (owned >> 5) << 5
        trigger = region_base + ((owned + 1) & 31)
        hybrid.on_access(access(trigger, pc=77))
        hybrid.on_access(access(owned, pc=77))
        hybrid.on_l1_eviction(trigger)
        streamed = hybrid.on_access(access(trigger, pc=77))
        assert owned not in streamed

    def test_sms_flows_when_cbws_has_no_claim(self):
        hybrid = CbwsSmsPrefetcher()
        hybrid.on_access(access(64, pc=9))
        hybrid.on_access(access(70, pc=9))
        hybrid.on_l1_eviction(64)
        assert hybrid.on_access(access(256, pc=9)) == [262]

    def test_storage_is_sum_of_parts(self):
        hybrid = CbwsSmsPrefetcher()
        assert hybrid.storage_bits() == (
            hybrid.cbws.storage_bits() + hybrid.sms.storage_bits()
        )

    def test_reset(self):
        hybrid = CbwsSmsPrefetcher()
        drive_blocks(hybrid, strided_blocks(8))
        hybrid.reset()
        assert hybrid.cbws.stream is None
        assert not hybrid._owned  # noqa: SLF001 - internal check
