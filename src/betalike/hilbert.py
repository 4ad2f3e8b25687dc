"""Space-filling curve keys for QI points.

Rows are quantized to a grid of 2**order cells per dimension and mapped to
one integer along a Hilbert curve, so rows close in QI space tend to get
nearby keys. The encoding is the classic bit-transposition algorithm,
vectorized over points; in one dimension it degenerates to the identity.
Rows with the same QI values get the same key, so `table_keys` quantizes
and encodes each distinct QI tuple once. It returns the distinct keys in
ascending order and each row's index into them, so a bucket orders its rows
by these small codes instead of by the keys themselves.
"""
from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, DataError, Table, _distinct_codes


def _check_order(order: int) -> None:
    if not 1 <= order <= 31:
        raise DataError(f"curve order must be in [1, 31], got {order}")


def hilbert_indices(cells: np.ndarray, order: int):
    """Map (n, d) grid coordinates in [0, 2**order) to curve positions.

    Returns a uint64 array when d * order fits in 64 bits, otherwise an
    object array of Python ints; both sort with `np.unique`.
    """
    cells = np.asarray(cells)
    if cells.ndim != 2:
        raise ValueError("cells must be an (n, d) array")
    n, d = cells.shape
    _check_order(order)
    if n and (cells.min() < 0 or float(cells.max()) >= float(1 << order)):
        raise ValueError(f"cell coordinates must lie in [0, 2**{order})")

    # One contiguous copy per axis, so every pass below is a plain array op.
    x = [np.array(cells[:, i], dtype=np.uint64) for i in range(d)]
    one = np.uint64(1)
    for b in range(order - 1, 0, -1):
        p = np.uint64((1 << b) - 1)
        for i, xi in enumerate(x):
            # p where bit b of axis i is set, else 0.
            flip = (xi >> np.uint64(b) & one) * p
            if i == 0:
                xi ^= flip
            else:
                # Bit set: invert the low bits of axis 0. Bit clear: exchange
                # the low bits of axis 0 and axis i.
                t = (x[0] ^ xi) & (flip ^ p)
                x[0] ^= flip | t
                xi ^= t
    for i in range(1, d):
        x[i] ^= x[i - 1]
    t = np.zeros(n, dtype=np.uint64)
    for b in range(order - 1, 0, -1):
        t ^= (x[d - 1] >> np.uint64(b) & one) * np.uint64((1 << b) - 1)
    for xi in x:
        xi ^= t

    # Interleave bit planes, most significant first, dimension 0 first.
    bit_positions = [(b, i) for b in range(order - 1, -1, -1) for i in range(d)]
    # Assemble 64-bit chunks; wider keys combine them as Python ints.
    keys = None
    for lo in range(0, len(bit_positions), 64):
        part = bit_positions[lo : lo + 64]
        acc = np.zeros(n, dtype=np.uint64)
        for b, i in part:
            acc <<= one
            acc |= x[i] >> np.uint64(b) & one
        keys = acc if keys is None else (keys.astype(object) << len(part)) | acc.astype(object)
    return keys


def quantize_table(table: Table, order: int) -> np.ndarray:
    """Grid coordinates of each distinct QI tuple (`table.qi_tuples`):
    numeric values scaled into the grid, categorical values placed by
    pre-order leaf rank."""
    tuples, _ = table.qi_tuples
    top = (1 << order) - 1
    cols = []
    for k, attr in enumerate(table.schema.qi_attributes):
        col = table.qi_values[k][tuples[:, k]]
        if attr.kind == CATEGORICAL:
            span = attr.hierarchy.n_leaves - 1
            scaled = col.astype(float) / span * top if span > 0 else np.zeros(len(col))
        else:
            scaled = (col - attr.lo) / (attr.hi - attr.lo) * top
        cols.append(np.clip(np.floor(scaled + 0.5), 0, top).astype(np.uint64))
    return np.column_stack(cols)


def table_keys(table: Table, order: int):
    """(keys, codes): the distinct curve keys of the table's rows in
    ascending order, and each row's index into them in the narrowest
    unsigned dtype that holds it. Each distinct QI tuple is encoded once;
    tuples that quantize to one grid cell share a key and so a code."""
    _check_order(order)
    _, inverse = table.qi_tuples
    keys, codes = _distinct_codes(hilbert_indices(quantize_table(table, order), order))
    return keys, np.take(codes, inverse)
