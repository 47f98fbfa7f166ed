"""CBWS hardware buffers (Figure 8, left side).

:class:`CurrentCbwsBuffer` is the FIFO building the working set of the
block that is executing right now, holding the low 32 bits of up to 16
line addresses.  The other buffer of Figure 8, the four predecessor
CBWSs against which the incremental differentials are computed on every
memory access, is the predictor's ``last_blocks`` deque.

Algorithm 1 itself (:func:`repro.core.predictor.predict_trace`) fills
and drains the buffer; this module only holds its state.
"""

from __future__ import annotations

from repro.common.bitops import mask
from repro.common.errors import ConfigError


class CurrentCbwsBuffer:
    """The current-CBWS FIFO.

    Line addresses are truncated to ``line_addr_bits`` (``addr_mask``)
    before storage, modelling the 32-bit fields of Figure 8.  A line
    already present is a repeat; a new line is appended at position
    ``len(lines)`` (the ``idx`` of Algorithm 1) while that is below
    ``capacity``, and sets ``overflowed`` once it is not.

    The working set lives in ``lines`` (first-touch order) and
    ``members`` (the same lines, for the repeat test); both are cleared
    in place at every block, so no per-block object is allocated.
    """

    def __init__(self, capacity: int = 16, line_addr_bits: int = 32) -> None:
        if capacity <= 0:
            raise ConfigError("current CBWS buffer needs positive capacity")
        self.capacity = capacity
        self.addr_mask = mask(line_addr_bits)
        self.lines: list[int] = []
        self.members: set[int] = set()
        #: True when the block touched more distinct lines than fit.
        self.overflowed = False

    def clear(self) -> None:
        """BLOCK_BEGIN: start tracing a fresh working set."""
        self.lines.clear()
        self.members.clear()
        self.overflowed = False
