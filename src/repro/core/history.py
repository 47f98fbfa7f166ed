"""Differential history tracking (Figure 8, right side).

Per prediction step the hardware keeps a *history shift register* — a
3-deep shift register of 12-bit differential hashes, functionally similar
to a branch history register but shifting CBWS differentials instead of
branch outcomes.  The registers index the 16-entry, fully-associative
*differential history table*, whose concatenated bits are XOR-folded
into a 16-bit tag and whose eviction policy is random (Table II).

The predictor (:class:`repro.core.predictor.CbwsPredictor`) holds each
register as a plain tuple of hashes (oldest first) and the table as a
plain dict, so this module supplies only the two pure functions of that
state: :func:`hash_differential` and :func:`history_tag`.  Both are
written with inline arithmetic; the predictor calls them only on a miss
of its per-run memos.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.bitops import mask
from repro.common.constants import CBWS_HASH_BITS


def hash_differential(delta: Sequence[int], hash_bits: int = CBWS_HASH_BITS) -> int:
    """Compress a differential vector to ``hash_bits`` bits.

    The paper stores "12 bits extracted from the original differential
    (bit-select hashing)".  We fold the 16-bit two's-complement elements
    together with a positional rotation (so permuted vectors hash apart)
    and XOR-fold the result down to ``hash_bits`` bits.  An empty
    differential hashes to a reserved all-ones value so it never aliases
    a real pattern.
    """
    if not delta:
        return mask(hash_bits)
    if hash_bits <= 0:
        raise ValueError(f"output width must be positive, got {hash_bits}")
    folded = len(delta)
    rotation = 0  # (position * 5) % 16: rotate within the 16-bit field
    for element in delta:
        encoded = element & 0xFFFF  # 16-bit two's complement stride
        folded ^= ((encoded << rotation) | (encoded >> (16 - rotation))) \
            & 0xFFFFFFFF
        rotation = (rotation + 5) & 15
    low = (1 << hash_bits) - 1
    hashed = 0
    while folded:
        hashed ^= folded & low
        folded >>= hash_bits
    return hashed


def history_tag(values: Sequence[int], hash_bits: int = CBWS_HASH_BITS,
                tag_bits: int = 16) -> int:
    """XOR-fold a shift register's contents into a table tag.

    ``values`` are the register's hashed differentials, oldest first;
    each is bit-selected to ``hash_bits`` and placed in its own field.
    This matches the paper's indexing: the registers' bits "are xor-ed to
    provide a 16-bit tag".  The fill level salts the fold, so a 1-deep
    history differs from the same value repeated.
    """
    if tag_bits <= 0:
        raise ValueError(f"output width must be positive, got {tag_bits}")
    field = (1 << hash_bits) - 1
    concatenated = 0
    shift = 0
    for value in values:
        concatenated |= (value & field) << shift
        shift += hash_bits
    concatenated ^= len(values)
    low = (1 << tag_bits) - 1
    tag = 0
    while concatenated:
        tag ^= concatenated & low
        concatenated >>= tag_bits
    return tag
