"""Tests for the CBWS hardware buffers (Figure 8), as Algorithm 1 fills
and drains them: the current-CBWS FIFO (the predictor's ``lines``,
``members`` and ``overflowed``) and the predecessor CBWSs
(``last_blocks``)."""

from array import array

import pytest

from repro.common.errors import ConfigError
from repro.core.predictor import CbwsConfig, CbwsPredictor, _drive
from repro.trace.events import BLOCK_BEGIN, BLOCK_END, MEMORY_ACCESS


def drive(predictor, blocks, block_id=0, close=True):
    """One pass over ``blocks`` (lists of lines, at line size 1); the
    last block stays open when ``close`` is false."""
    kinds, payloads = array("B"), array("Q")
    for number, lines in enumerate(blocks, 1):
        kinds.append(BLOCK_BEGIN)
        payloads.append(block_id)
        kinds.extend([MEMORY_ACCESS] * len(lines))
        payloads.extend(lines)
        if close or number < len(blocks):
            kinds.append(BLOCK_END)
            payloads.append(block_id)
    return _drive(predictor, kinds, payloads, 0)


def predictor(**geometry):
    return CbwsPredictor(CbwsConfig(**geometry))


class TestCurrentCbwsBuffer:
    def test_push_returns_append_position(self):
        """New lines append in first-touch order; a repeat is dropped."""
        state = predictor(max_vector_members=4)
        drive(state, [[100, 200, 100, 300]])
        assert list(state.last_blocks) == [(100, 200, 300)]
        assert not state.last_block_overflowed

    def test_capacity_enforced(self):
        state = predictor(max_vector_members=2)
        drive(state, [[1, 2, 3]], close=False)
        assert state.lines == [1, 2]
        assert state.overflowed
        drive(state, [[1, 2, 3]])
        assert list(state.last_blocks) == [(1, 2)]
        assert state.last_block_overflowed
        assert state.stats.blocks_overflowed == 1

    def test_address_truncation_to_32_bits(self):
        state = predictor(line_addr_bits=32)
        drive(state, [[(1 << 40) | 123]])
        assert list(state.last_blocks) == [(123,)]

    def test_truncation_can_alias(self):
        """Two far-apart lines with equal low bits alias in hardware —
        the second access is treated as a repeat."""
        state = predictor(max_vector_members=4, line_addr_bits=8)
        drive(state, [[0x101, 0x201]])
        assert list(state.last_blocks) == [(0x01,)]

    def test_clear(self):
        """BLOCK_BEGIN and BLOCK_END both leave the buffer empty."""
        state = predictor(max_vector_members=2)
        drive(state, [[1, 2, 3], [9]], close=False)
        assert state.lines == [9]
        assert state.members == {9}
        assert not state.overflowed
        drive(state, [[9]])
        assert state.lines == []
        assert state.members == set()
        assert list(state.last_blocks) == [(9,), (1, 2)]

    def test_indexing(self):
        """An open block's working set reads in first-touch order."""
        state = predictor(max_vector_members=4)
        drive(state, [[7, 8, 7]], close=False)
        assert state.lines[0] == 7
        assert state.lines == [7, 8]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            CbwsConfig(max_vector_members=0)


class TestLastBlocksBuffer:
    def test_step_ordering(self):
        state = predictor(max_step=3, predict_steps=3)
        drive(state, [[1], [2], [3]])
        assert list(state.last_blocks) == [(3,), (2,), (1,)]

    def test_depth_bounded(self):
        state = predictor(max_step=2, predict_steps=2)
        drive(state, [[value] for value in range(5)])
        assert list(state.last_blocks) == [(4,), (3,)]

    def test_missing_steps_return_none(self):
        """With one predecessor only the 1-step differential is built;
        an empty block is not a predecessor."""
        state = predictor(max_step=4)
        drive(state, [[1], [], [5]], close=False)
        assert list(state.last_blocks) == [(1,)]
        assert state.diffs == [[4], [], [], []]

    def test_step_bounds_enforced(self):
        with pytest.raises(ConfigError):
            CbwsConfig(max_step=2, predict_steps=3)
        with pytest.raises(ConfigError):
            CbwsConfig(max_step=2, predict_steps=0)
        state = predictor(max_step=2, predict_steps=2)
        assert state.last_blocks.maxlen == 2
        assert len(state.diffs) == len(state.registers) == 2

    def test_clear(self):
        """A new static block id flushes the predecessors."""
        state = predictor(max_step=2, predict_steps=2)
        drive(state, [[1], [2]])
        drive(state, [[3]], block_id=1, close=False)
        assert len(state.last_blocks) == 0
        assert state.diffs == [[], []]

    def test_zero_depth_rejected(self):
        with pytest.raises(ConfigError):
            CbwsConfig(max_step=0)
