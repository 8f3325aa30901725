"""Byte-wise lookup tables for bit spreading and compaction.

Every Morton-code operation in the tree -- interleaving for the critbit
baselines and shard routing, the batch engine's z-order sort keys, the
kNN tiebreak codes, de-interleaving for the z-order utilities -- bottoms
out in one of two primitives:

- *spread*: move bit ``i`` of a value to position ``i * k`` (insert
  ``k - 1`` zero gaps between consecutive bits),
- *compact*: the inverse -- collect the bits at positions ``0, k, 2k,
  ...`` back into a contiguous value.

Doing either bit-by-bit costs ``width`` Python-level loop iterations per
value.  This module precomputes 256-entry byte tables so both become one
table lookup per *byte* (8x fewer iterations), shared process-wide:

- :func:`spread_table` -- ``table[b]`` is byte ``b`` spread with stride
  ``k`` (this is the table the batch z-sort keys and the
  :class:`~repro.parallel.router.ZShardRouter` shard keys share),
- :func:`compact_table` -- ``table[b]`` collects the bits of byte ``b``
  found at local positions ``phase, phase + k, phase + 2k, ...``.  The
  ``phase`` parameter handles byte boundaries that are not stride
  aligned: the byte at bit offset ``8 * i`` of a stride-``k`` bit string
  keeps its bits starting at local offset ``(-8 * i) % k``.

:func:`spread_plan` / :func:`compact_plan` bake the per-byte shifts for
a fixed ``(k, width)`` into tuples of ``(in_shift, table, out_shift)``
steps, which is the form the per-(k, width) specializations of
:mod:`repro.core.specialize` unroll into straight-line code.

De-interleaving one dimension per byte step costs ``k`` lookups per
byte of code.  :func:`row_table` instead decodes whole *rows* (one bit
of every dimension) per lookup: with ``r = 12 // k`` rows per 12-bit
index, a ``width``-bit shape needs ``ceil(width / r)`` lookups for all
``k`` dimensions together (5 instead of 24 at 3x20).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

__all__ = [
    "ROW_TABLE_BITS",
    "compact_plan",
    "compact_table",
    "row_table",
    "spread_plan",
    "spread_table",
]

#: Index width of a :func:`row_table`: a lookup decodes
#: ``ROW_TABLE_BITS // k`` whole rows, so tables stay at 4,096 entries.
ROW_TABLE_BITS = 12


@lru_cache(maxsize=128)
def spread_table(k: int) -> Tuple[int, ...]:
    """Byte lookup table: ``table[b]`` has the bits of ``b`` spread with
    ``k - 1`` zero gaps (bit ``i`` lands at position ``i * k``).

    >>> spread_table(2)[0b111]
    21
    """
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")
    table = []
    for byte in range(256):
        spread_bits = 0
        for i in range(8):
            if byte & (1 << i):
                spread_bits |= 1 << (i * k)
        table.append(spread_bits)
    return tuple(table)


@lru_cache(maxsize=512)
def compact_table(k: int, phase: int = 0) -> Tuple[int, ...]:
    """Byte lookup table collecting the stride-``k`` bits of a byte.

    ``table[b]`` packs the bits of ``b`` at local positions ``phase,
    phase + k, phase + 2k, ...`` (ascending) into contiguous low bits.

    >>> compact_table(2)[0b010101]
    7
    >>> compact_table(2, phase=1)[0b101010]
    7
    """
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")
    if not 0 <= phase < k:
        raise ValueError(f"phase must be in [0, {k}), got {phase}")
    table = []
    for byte in range(256):
        packed = 0
        out = 0
        pos = phase
        while pos < 8:
            packed |= ((byte >> pos) & 1) << out
            out += 1
            pos += k
        table.append(packed)
    return tuple(table)


@lru_cache(maxsize=256)
def spread_plan(
    k: int, width: int
) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
    """Per-byte steps spreading a ``width``-bit value with stride ``k``.

    Each step is ``(in_shift, table, out_shift)``: the spread value is
    ``OR of table[(value >> in_shift) & 0xFF] << out_shift`` over all
    steps.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    table = spread_table(k)
    return tuple(
        (8 * i, table, 8 * i * k) for i in range((width + 7) // 8)
    )


@lru_cache(maxsize=256)
def compact_plan(
    k: int, width: int
) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
    """Per-byte steps compacting stride-``k`` bits of a ``k * width``-bit
    string back into a ``width``-bit value.

    Each step is ``(in_shift, table, out_shift)``: the compacted value
    is ``OR of table[(bits >> in_shift) & 0xFF] << out_shift`` over all
    steps.  Byte ``i`` keeps its bits from local offset ``(-8i) % k``
    upward, and they land at output offset ``ceil(8i / k)``.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    steps = []
    for i in range((k * width + 7) // 8):
        phase = (-8 * i) % k
        if phase >= 8:
            # Stride so large the byte holds no stride-aligned bit.
            continue
        steps.append((8 * i, compact_table(k, phase), (8 * i + phase) // k))
    return tuple(steps)


@lru_cache(maxsize=64)
def row_table(k: int, width: int) -> Tuple[int, ...]:
    """Lookup table de-interleaving ``r = ROW_TABLE_BITS // k`` rows of a
    stride-``k`` code at once.

    ``table[c]`` takes the ``k * r``-bit chunk ``c`` (row ``i`` in bits
    ``[i*k, i*k + k)``, dimension 0 the highest bit of each row) and
    puts dimension ``d``'s ``r`` bits at ``(k - 1 - d) * width`` upward,
    so OR-ing ``table[chunk_j] << (j * r)`` over a code's chunks leaves
    every dimension in its own ``width``-bit field.

    >>> bin(row_table(2, 4)[0b11_10])  # rows 0b10, 0b11 -> (0b11, 0b10)
    '0b110010'
    """
    rows = ROW_TABLE_BITS // k
    if rows < 1:
        raise ValueError(f"k={k} rows do not fit a {ROW_TABLE_BITS}-bit index")
    full = (1 << k) - 1
    row = [
        sum(((a >> j) & 1) << (j * width) for j in range(k))
        for a in range(full + 1)
    ]
    table = list(row)
    for c in range(full + 1, 1 << (k * rows)):
        table.append((table[c >> k] << 1) | row[c & full])
    return tuple(table)
