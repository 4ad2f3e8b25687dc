from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betalike as bl
from betalike.hilbert import quantize_table

from conftest import mixed_qi_tables, patient_schema, table1


def curve_2d(order: int) -> list[tuple[int, int]]:
    """Independent oracle: the 2-d curve as an explicit visit list, built by
    the textbook quadrant recursion (transpose / shift / anti-transpose)."""
    cells = [(0, 0), (0, 1), (1, 1), (1, 0)]
    for k in range(2, order + 1):
        h = 1 << (k - 1)
        q1 = [(y, x) for x, y in cells]
        q2 = [(x, y + h) for x, y in cells]
        q3 = [(x + h, y + h) for x, y in cells]
        q4 = [(h - 1 - y + h, h - 1 - x) for x, y in cells]
        cells = q1 + q2 + q3 + q4
    return cells


def test_first_order_traversal():
    cells = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    assert bl.hilbert_indices(cells, 1).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_matches_recursive_oracle_2d(order):
    visit = curve_2d(order)
    cells = np.asarray(visit)
    keys = bl.hilbert_indices(cells, order)
    assert keys.tolist() == list(range(len(visit)))


def test_one_dimension_is_identity():
    vals = np.arange(0, 1 << 10).reshape(-1, 1)
    assert (bl.hilbert_indices(vals, 10) == vals[:, 0]).all()


@pytest.mark.parametrize("d", [2, 3])
def test_bijective_and_unit_steps(d):
    order = 2
    side = 1 << order
    grid = np.stack(np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    keys = bl.hilbert_indices(grid, order)
    assert len(set(keys.tolist())) == side**d
    # Sorted by key, consecutive cells differ by exactly one unit step.
    path = grid[np.argsort(keys)]
    steps = np.abs(np.diff(path.astype(int), axis=0))
    assert (steps.sum(axis=1) == 1).all()


def test_wide_keys_refine_narrow_keys():
    # Doubling every coordinate adds one refinement level: the parent cell's
    # position must be the wide key's high bits.
    rng = np.random.default_rng(8)
    d = 3
    cells = rng.integers(0, 1 << 21, size=(64, d), dtype=np.uint64)
    narrow = bl.hilbert_indices(cells, 21)          # 63 bits: uint64 path
    wide = bl.hilbert_indices(cells * 2, 22)        # 66 bits: python-int path
    assert wide.dtype == object
    for n, w in zip(narrow.tolist(), wide):
        assert (w >> d) == n


def test_order_validation():
    with pytest.raises(ValueError):
        bl.hilbert_indices(np.zeros((1, 2), dtype=np.uint64), 0)
    with pytest.raises(ValueError):
        bl.hilbert_indices(np.zeros((1, 2), dtype=np.uint64), 32)


def test_cells_must_be_two_dimensional():
    with pytest.raises(ValueError, match=r"^cells must be an \(n, d\) array$"):
        bl.hilbert_indices(np.arange(4), 2)


def test_cell_range_validation():
    with pytest.raises(ValueError, match="coordinates"):
        bl.hilbert_indices(np.array([[0, 4]]), 2)
    with pytest.raises(ValueError, match="coordinates"):
        bl.hilbert_indices(np.array([[-1, 0]]), 2)


def row_cells(table, order: int):
    """Grid coordinates of every row, gathered from the per-tuple cells by
    the row index of `qi_tuples`."""
    _, inverse = table.qi_tuples
    return quantize_table(table, order)[inverse]


def test_quantization_endpoints():
    t = table1()
    cells = row_cells(t, 8)
    top = (1 << 8) - 1
    # weight domain [40, 90]: row 4 holds 80 -> (80-40)/50 * 255 rounded
    assert cells[4, 0] == round((80 - 40) / 50 * top)
    assert cells.max() <= top


def test_identical_records_identical_keys():
    schema = patient_schema()
    rows = [{"weight": 55, "age": 33, "disease": "flu"}] * 2
    t = bl.table_from_rows(schema, rows)
    keys, codes = bl.table_keys(t, 16)
    assert len(keys) == 1 and codes.tolist() == [0, 0]


def test_categorical_axis_uses_leaf_rank():
    h = bl.Hierarchy({"name": "r", "children": ["a", "b", "c"]})
    schema = bl.DatasetSchema((
        bl.Attribute("cat", "qi", "categorical", hierarchy=h),
        bl.Attribute("s", "sa"),
    ))
    t = bl.table_from_rows(schema, [{"cat": v, "s": "x"} for v in ("a", "b", "c")])
    cells = row_cells(t, 4)
    assert cells[:, 0].tolist() == [0, round(15 / 2), 15]


@pytest.mark.parametrize("n_qi, order", [(2, 31), (3, 16), (3, 22), (5, 16)])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_table_keys_are_per_row_curve_keys(n_qi, order, data):
    # (2, 31) and (3, 16) fit uint64 keys; (3, 22) and (5, 16) need more
    # than 64 bits and take the object path.
    t = data.draw(mixed_qi_tables(n_qi))
    top = (1 << order) - 1
    cells = []
    for attr, col in zip(t.schema.qi_attributes, t.qi_columns):
        if attr.kind == "categorical":
            scaled = col.astype(float) / (attr.hierarchy.n_leaves - 1) * top
        else:
            scaled = (col - attr.lo) / (attr.hi - attr.lo) * top
        cells.append(np.clip(np.floor(scaled + 0.5), 0, top).astype(np.uint64))
    expected = bl.hilbert_indices(np.column_stack(cells), order)
    keys, codes = bl.table_keys(t, order)
    assert keys.dtype == expected.dtype == (np.uint64 if n_qi * order <= 64 else object)
    assert keys.tolist() == sorted(set(expected.tolist()))
    assert codes.dtype == np.min_scalar_type(len(keys) - 1)
    assert keys[codes].tolist() == expected.tolist()


def per_row_table_keys(table, order: int):
    """Curve key of every row, each distinct QI tuple encoded once and
    gathered by row: the per-row keys that `table_keys` codes."""
    _, inverse = table.qi_tuples
    return bl.hilbert_indices(quantize_table(table, order), order)[inverse]


@pytest.mark.parametrize("order, key_type", [(3, np.uint64), (16, np.uint64), (20, object)])
def test_table_keys_code_the_per_row_keys(order, key_type):
    # At order 3 the zip axis has 8 cells, so most of the table's distinct
    # tuples share a key with another; at order 20 the 4 QI axes need 80-bit
    # keys, held as Python ints.
    zip_spec = bl.default_qi_spec() + (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),)
    t = bl.generate_synthetic(3_000, 20, seed=5, qi_spec=zip_spec)
    keys, codes = bl.table_keys(t, order)
    want = per_row_table_keys(t, order)
    assert keys.dtype == want.dtype == key_type
    assert keys[codes].tolist() == want.tolist()
    assert (np.diff(np.unique(codes)) == 1).all() and codes.max() == len(keys) - 1
    assert all(a < b for a, b in zip(keys.tolist(), keys.tolist()[1:]))
    if order == 3:
        assert len(keys) < len(t.qi_tuples[0])
