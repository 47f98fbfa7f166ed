"""CBWS hardware buffers (Figure 8, left side).

Two structures track working sets across block instances:

* :class:`CurrentCbwsBuffer` — the FIFO building the working set of the
  block that is executing right now, holding the low 32 bits of up to 16
  line addresses;
* :class:`LastBlocksBuffer` — the four predecessor CBWSs, against which
  the incremental differentials are computed on every memory access.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.common.bitops import mask
from repro.common.errors import ConfigError


class CurrentCbwsBuffer:
    """The current-CBWS FIFO.

    Line addresses are truncated to ``line_addr_bits`` before storage,
    modelling the 32-bit fields of Figure 8.  ``push`` returns the
    position at which a new line was appended (the ``idx`` of
    Algorithm 1) or ``None`` when the line was already present or the
    buffer is full.

    The working set lives in ``lines`` (first-touch order) and
    ``members`` (the same lines, for the repeat test); both are cleared
    in place at every block, so no per-block object is allocated.
    """

    def __init__(self, capacity: int = 16, line_addr_bits: int = 32) -> None:
        if capacity <= 0:
            raise ConfigError("current CBWS buffer needs positive capacity")
        self.capacity = capacity
        self._addr_mask = mask(line_addr_bits)
        self.lines: list[int] = []
        self.members: set[int] = set()
        #: True when the block touched more distinct lines than fit.
        self.overflowed = False

    def push(self, line: int) -> int | None:
        """Observe a memory access inside the current block."""
        truncated = line & self._addr_mask
        if truncated in self.members:
            return None
        index = len(self.lines)
        if index >= self.capacity:
            self.overflowed = True
            return None
        self.members.add(truncated)
        self.lines.append(truncated)
        return index

    def clear(self) -> None:
        """BLOCK_BEGIN: start tracing a fresh working set."""
        self.lines.clear()
        self.members.clear()
        self.overflowed = False

    def snapshot(self) -> tuple[int, ...]:
        """The working set accumulated so far."""
        return tuple(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, index: int) -> int:
        return self.lines[index]


class LastBlocksBuffer:
    """The predecessor-CBWS store ("Last blocks CBWS buffer", Figure 8).

    ``get(1)`` is the most recently completed block, ``get(k)`` the block
    ``k`` completions ago, up to ``max_step`` (4 in the paper).  Entries
    are CBWS tuples already truncated by the current-CBWS buffer.
    """

    def __init__(self, max_step: int = 4) -> None:
        if max_step <= 0:
            raise ConfigError("last-blocks buffer needs positive depth")
        self.max_step = max_step
        self._blocks: deque[tuple[int, ...]] = deque(maxlen=max_step)

    def push(self, cbws: tuple[int, ...]) -> None:
        """BLOCK_END: the completed working set becomes predecessor #1."""
        self._blocks.appendleft(cbws)

    def get(self, step: int) -> tuple[int, ...] | None:
        """CBWS of the block ``step`` completions back, or None."""
        if not 1 <= step <= self.max_step:
            raise ConfigError(
                f"step {step} outside [1, {self.max_step}]"
            )
        if step > len(self._blocks):
            return None
        return self._blocks[step - 1]

    def clear(self) -> None:
        """Drop all predecessor history (block id changed)."""
        self._blocks.clear()

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._blocks)
