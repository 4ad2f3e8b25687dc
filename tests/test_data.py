from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betalike as bl
from betalike import data
from betalike.data import code_dtype
from betalike.perturb import _in_published_order

from conftest import mixed_qi_tables, patient_schema, table1, table_from_qi_columns


def _write_csv(path, rows, header="weight,age,disease"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


TABLE1_ROWS = [
    "70,40,headache",
    "60,60,epilepsy",
    "50,50,brain tumors",
    "70,50,heart murmur",
    "80,50,anemia",
    "60,70,angina",
]


def test_load_table_mirrors_patient_records(tmp_path):
    f = tmp_path / "t1.csv"
    _write_csv(f, TABLE1_ROWS)
    t = bl.load_table(f, patient_schema())
    assert t.n_rows == 6
    assert t.m == 6
    assert [float(col[0]) for col in t.qi_columns] == [70.0, 40.0]


def test_load_empty_data_section(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("weight,age,disease\n", encoding="utf-8")
    with pytest.raises(bl.DataError, match="no rows"):
        bl.load_table(f, patient_schema())


def test_load_value_outside_domain_names_row_and_attribute(tmp_path):
    f = tmp_path / "bad.csv"
    _write_csv(f, ["70,40,headache", "60,200,epilepsy"])
    with pytest.raises(bl.DataError, match=r"row 2.*age"):
        bl.load_table(f, patient_schema())


def test_load_unparsable_value(tmp_path):
    f = tmp_path / "bad.csv"
    _write_csv(f, ["seventy,40,headache"])
    with pytest.raises(bl.DataError, match=r"row 1.*weight"):
        bl.load_table(f, patient_schema())


def test_load_missing_column(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("weight,age\n70,40\n", encoding="utf-8")
    with pytest.raises(bl.DataError, match="missing column"):
        bl.load_table(f, patient_schema())


def test_load_unknown_header_column(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("weight,age,disease,zip\n70,40,headache,111\n", encoding="utf-8")
    with pytest.raises(bl.DataError, match="unexpected column"):
        bl.load_table(f, patient_schema())


def test_unknown_categorical_leaf(tmp_path):
    schema = bl.DatasetSchema((
        bl.Attribute("color", "qi", "categorical", hierarchy=bl.Hierarchy({"name": "c", "children": ["red", "blue"]})),
        bl.Attribute("kind", "sa"),
    ))
    f = tmp_path / "bad.csv"
    f.write_text("color,kind\ngreen,a\n", encoding="utf-8")
    with pytest.raises(bl.DataError, match=r"row 1.*green"):
        bl.load_table(f, schema)


def test_save_load_round_trip(tmp_path, example2):
    f = tmp_path / "round.csv"
    bl.save_table(example2, f)
    again = bl.load_table(f, example2.schema)
    assert again.sa_values == example2.sa_values
    assert (again.sa_codes == example2.sa_codes).all()
    for a, b in zip(again.qi_columns, example2.qi_columns):
        assert (a == b).all()


def test_sa_distribution_table1_uniform():
    dist = bl.sa_distribution(table1())
    assert dist.counts == (1,) * 6
    assert np.allclose(dist.freqs(), 1 / 6)
    assert abs(sum(dist.freqs()) - 1.0) < 1e-12


def test_sa_distribution_example2(example2):
    dist = bl.sa_distribution(example2)
    assert dist.counts == (2, 3, 3, 3, 4, 4)
    assert dist.total == 19
    assert dist.values[0] == "headache"


def test_load_with_declared_sa_order(tmp_path):
    f = tmp_path / "t.csv"
    _write_csv(f, ["70,40,flu", "60,50,flu", "50,60,cold"])
    order = ("flu", "cold", "missing")
    t = _in_published_order(bl.load_table(f, patient_schema()), order, f)
    assert t.sa_values == order
    assert t.sa_codes.tolist() == [0, 0, 1]
    with pytest.raises(bl.DataError, match="not in the declared order"):
        _in_published_order(bl.load_table(f, patient_schema()), ("flu", "other"), f)


def assert_sorted_qi_distinct(table):
    """The table's `qi_values` and `qi_codes` are what one `np.unique` over
    each gathered column gives, dtypes included, with the codes in the
    narrowest unsigned dtype."""
    for k, col in enumerate(table.qi_columns):
        values, codes = np.unique(col, return_inverse=True)
        assert table.qi_values[k].dtype == values.dtype and np.array_equal(table.qi_values[k], values)
        assert table.qi_codes[k].dtype == code_dtype(len(values)) and np.array_equal(table.qi_codes[k], codes)


def test_loaded_tables_carry_sorted_qi_values(tmp_path):
    # "30", "30.0" and "030" are three strings but one number.
    f = tmp_path / "t.csv"
    _write_csv(f, ["50,30,flu", "60.5,30.0,cold", "50.0,030,flu", "40,80,flu", "60.50,21,cold"])
    t = bl.load_table(f, patient_schema())
    assert_sorted_qi_distinct(t)
    assert t.qi_values[0].tolist() == [40.0, 50.0, 60.5] and t.qi_codes[0].tolist() == [1, 2, 1, 0, 2]
    assert t.qi_values[1].tolist() == [21.0, 30.0, 80.0] and t.qi_codes[1].tolist() == [1, 1, 1, 2, 0]
    ordered = _in_published_order(t, ("cold", "flu"), f)
    assert ordered.sa_values == ("cold", "flu")
    assert_sorted_qi_distinct(ordered)
    assert_sorted_qi_distinct(bl.table_from_rows(patient_schema(), [{"weight": 41, "age": 30, "disease": "x"}]))


ZIP = bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999)
CROSSING_ZERO = bl.Attribute("x", "qi", "numeric", lo=-3.7, hi=2.2)


def test_loaded_categorical_and_wide_columns_match_the_row_sort(tmp_path):
    source = bl.generate_synthetic(3_000, 20, seed=5, qi_spec=bl.default_qi_spec() + (ZIP,))
    f = tmp_path / "zip.csv"
    bl.save_table(source, f)
    t = bl.load_table(f, source.schema)
    assert_sorted_qi_distinct(t)
    assert t.qi_codes[3].dtype == np.uint16
    for k in range(4):
        assert t.qi_values[k].tolist() == source.qi_values[k].tolist()
        assert t.qi_codes[k].tolist() == source.qi_codes[k].tolist()


@pytest.mark.parametrize("spec, n", [
    (None, 20_000),
    (None, 120),
    (bl.default_qi_spec() + (ZIP,), 20_000),
    ((CROSSING_ZERO, bl.Attribute("f", "qi", "numeric", lo=0.25, hi=9.75)), 20_000),
    ((bl.Attribute("w", "qi", "numeric", lo=-2.0**60, hi=2.0**60), CROSSING_ZERO), 20_000),
], ids=["default", "default-with-gaps", "zip", "crossing-zero", "wider-than-2**53"])
def test_generated_qi_codes_are_the_row_sort(spec, n):
    # The zip and the 2**61-wide axes hold more integers than rows and are
    # sorted; the others are ranked by counting, and at 120 rows some ages
    # in the drawn range are missing.
    assert_sorted_qi_distinct(bl.generate_synthetic(n, 50, qi_spec=spec, seed=3))


def test_generated_values_crossing_zero_match_the_rounded_draws(tmp_path):
    # The generator's draws replayed: the SA shuffle, then one uniform per
    # row, rounded the way the column was before it was held as codes.
    n, m = 4_000, 4
    t = bl.generate_synthetic(n, m, qi_spec=(CROSSING_ZERO,), seed=8, correlated=False)
    rng = np.random.default_rng(8)
    rng.shuffle(np.repeat(np.arange(m), n // m))
    col = np.rint(CROSSING_ZERO.lo + rng.random(n) * (CROSSING_ZERO.hi - CROSSING_ZERO.lo))
    assert np.signbit(col[col == 0]).any()
    values, codes = np.unique(col, return_inverse=True)
    assert np.array_equal(t.qi_values[0], values) and np.array_equal(t.qi_codes[0], codes)
    bl.save_table(t, tmp_path / "t.csv")
    bl.save_table(table_from_qi_columns(t.schema, (col,), t.sa_codes, t.sa_values), tmp_path / "rows.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("m, dtype", [(256, np.uint8), (257, np.uint16)])
def test_sa_codes_take_the_narrowest_dtype(tmp_path, m, dtype):
    t = bl.generate_synthetic(2 * m, m, seed=1)
    f = tmp_path / "t.csv"
    bl.save_table(t, f)
    perturbed = bl.perturb(t, bl.build_model(bl.sa_distribution(t), 2.0), seed=1)
    tables = (t, bl.load_table(f, t.schema), _in_published_order(bl.load_table(f, t.schema), t.sa_values, f),
              perturbed)
    assert [table.sa_codes.dtype for table in tables] == [dtype] * 4


def test_derived_tables_share_the_source_qi_arrays(tmp_path, monkeypatch):
    t = bl.generate_synthetic(500, 10, seed=2)
    perturbed = bl.perturb(t, bl.build_model(bl.sa_distribution(t), 2.0), seed=1)
    assert perturbed.qi_values is t.qi_values and perturbed.qi_codes is t.qi_codes
    f = tmp_path / "t.csv"
    bl.save_table(t, f)
    built, build = [], data._table_from_columns

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(data, "_table_from_columns", spy)
    ordered = _in_published_order(bl.load_table(f, t.schema), tuple(reversed(t.sa_values)), f)
    assert ordered.qi_values is built[0].qi_values and ordered.qi_codes is built[0].qi_codes


def test_sa_distribution_needs_canonical_code_order():
    # Skewed, so that reversing the codes puts the counts in descending order.
    table = bl.generate_synthetic(200, 5, seed=1, skew=1.0)
    reversed_codes = (table.m - 1 - table.sa_codes).astype(table.sa_codes.dtype)
    with pytest.raises(bl.DataError, match="^table SA codes are not in canonical frequency order; "):
        bl.sa_distribution(dataclasses.replace(table, sa_codes=reversed_codes))


def test_sa_distribution_single_value():
    schema = patient_schema()
    rows = [{"weight": 50, "age": 30, "disease": "flu"} for _ in range(4)]
    dist = bl.sa_distribution(bl.table_from_rows(schema, rows))
    assert dist.freqs().tolist() == [1.0]


def test_interning_ascending_with_first_appearance_ties(example2):
    # epilepsy, brain tumors, anemia all occur three times; their canonical
    # order follows first appearance in the rows.
    assert example2.sa_values == (
        "headache", "epilepsy", "brain tumors", "anemia", "angina", "heart murmur"
    )


def test_synthetic_uniform_pigeonhole():
    t = bl.generate_synthetic(50, 50, skew=0.0, seed=1)
    assert (t.sa_counts() == 1).all()


def test_synthetic_deterministic():
    a = bl.generate_synthetic(500, 10, skew=0.7, seed=9)
    b = bl.generate_synthetic(500, 10, skew=0.7, seed=9)
    assert (a.sa_codes == b.sa_codes).all()
    for x, y in zip(a.qi_columns, b.qi_columns):
        assert (x == y).all()
    c = bl.generate_synthetic(500, 10, skew=0.7, seed=10)
    assert not all((x == y).all() for x, y in zip(a.qi_columns, c.qi_columns))


def test_synthetic_census_profile_extremes():
    t = bl.generate_synthetic(500_000, 50, seed=2, sa_freqs=bl.census_like_profile(50))
    dist = bl.sa_distribution(t)
    assert dist.freq(0) == pytest.approx(0.002018, abs=2e-5)
    assert dist.freq(49) == pytest.approx(0.048402, abs=2e-5)


def test_synthetic_requires_row_per_value():
    with pytest.raises(bl.DataError, match="at least one row per SA value"):
        bl.generate_synthetic(5, 10)


@pytest.mark.parametrize("skew", [-0.5, float("nan")])
def test_synthetic_rejects_negative_or_nan_skew(skew):
    with pytest.raises(bl.DataError, match="^skew must be >= 0$"):
        bl.generate_synthetic(100, 5, skew=skew)


@pytest.mark.parametrize("freqs", [[float("nan"), 1.0], [float("nan")] * 2, [0.5, float("inf")],
                                   [0.0, 1.0], [0.4, 0.4], [1.0]])
def test_synthetic_rejects_bad_sa_freqs(freqs):
    with pytest.raises(bl.DataError, match="^sa_freqs must be m positive frequencies summing to 1$"):
        bl.generate_synthetic(100, 2, sa_freqs=freqs)


def test_synthetic_infinite_skew_is_degenerate_but_valid():
    t = bl.generate_synthetic(100, 5, skew=float("inf"), seed=1)
    assert t.sa_counts().tolist() == [1, 1, 1, 1, 96]


def test_synthetic_every_value_present():
    t = bl.generate_synthetic(200, 40, skew=2.5, seed=4)
    assert (t.sa_counts() >= 1).all()


def test_census_like_profile_shape():
    p = bl.census_like_profile(50)
    assert p.shape == (50,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert (np.diff(p) >= 0).all()
    assert p[0] == 0.002018 and p[-1] == 0.048402
    with pytest.raises(bl.DataError):
        bl.census_like_profile(2)


def test_schema_round_trip(tmp_path, example2):
    f = tmp_path / "schema.json"
    bl.save_schema(example2.schema, f)
    schema = bl.load_schema(f)
    assert [a.name for a in schema.attributes] == ["weight", "age", "disease"]
    assert schema.qi_attributes[0].lo == 40


def test_schema_round_trip_keeps_qi_weights(tmp_path):
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1, weight=0.25),
        bl.Attribute("y", "qi", "numeric", lo=0, hi=1, weight=0.75),
        bl.Attribute("s", "sa"),
    ))
    f = tmp_path / "schema.json"
    bl.save_schema(schema, f)
    assert [a.weight for a in bl.load_schema(f).attributes] == [0.25, 0.75, None]


def test_schema_validation():
    with pytest.raises(bl.DataError, match="exactly one SA"):
        bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=1),))
    with pytest.raises(bl.DataError, match="lo < hi"):
        bl.Attribute("x", "qi", "numeric", lo=3, hi=3)
    with pytest.raises(bl.DataError, match="categorical"):
        bl.Attribute("x", "sa", "numeric", lo=0, hi=1)
    with pytest.raises(bl.DataError, match="sum to 1"):
        bl.DatasetSchema((
            bl.Attribute("x", "qi", "numeric", lo=0, hi=1, weight=0.4),
            bl.Attribute("y", "qi", "numeric", lo=0, hi=1, weight=0.4),
            bl.Attribute("s", "sa"),
        ))


def test_qi_weights_default():
    schema = patient_schema()
    assert schema.qi_weights().tolist() == [0.5, 0.5]


def _assert_qi_tuples_match_unique(table):
    tuples, inverse = table.qi_tuples
    expected, expected_inverse = np.unique(np.column_stack(table.qi_codes), axis=0, return_inverse=True)
    assert np.array_equal(tuples, expected)
    assert inverse.dtype.kind == "u" and np.array_equal(inverse, expected_inverse.ravel())


@given(mixed_qi_tables())
@settings(max_examples=80, deadline=None)
def test_qi_tuples_are_the_distinct_code_rows(table):
    _assert_qi_tuples_match_unique(table)


def reference_cube(table):
    """`Table.prefix_cube` as np.ravel_multi_index, np.bincount and np.cumsum
    per axis build it."""
    shape = (*map(len, table.qi_values), table.m)
    counts = np.bincount(np.ravel_multi_index((*table.qi_codes, table.sa_codes), shape),
                         minlength=int(np.prod(shape)))
    cube = np.zeros(tuple(n + 1 for n in shape[:-1]) + (table.m,), dtype=np.int64)
    cube[(slice(1, None),) * (len(shape) - 1)] = counts.reshape(shape)
    for axis in range(len(shape) - 1):
        cube = np.cumsum(cube, axis=axis)
    return cube


def _assert_cube_from_kept_and_own_counts(table):
    # `fresh` has none of `table`'s derived arrays.
    fresh = dataclasses.replace(table)
    expected = reference_cube(table)
    cells = int(np.prod([len(v) for v in table.qi_values])) * table.m
    _assert_qi_tuples_match_unique(table)
    assert ("_cell_counts" in vars(table)) == (cells <= table.n_rows)
    for t in (table, fresh):
        assert t.prefix_cube.dtype == np.int64 and np.array_equal(t.prefix_cube, expected)
        assert "_cell_counts" not in vars(t)
    _assert_qi_tuples_match_unique(fresh)


# Slabs of every size, and none, add by slabs.
@pytest.mark.parametrize("slab_cells", [0, 10**9], ids=["slabs", "cumsum"])
@given(mixed_qi_tables(sa_values=("x", "y", "z")))
@settings(max_examples=60, deadline=None)
def test_prefix_cube_from_kept_or_own_counts(slab_cells, table):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_SLAB_CELLS", slab_cells)
        _assert_cube_from_kept_and_own_counts(table)


def test_qi_tuples_keep_the_cube_counts_when_the_cells_fit():
    # 10 x 60 values x 5 SA codes is 3,000 cells, under the 5,000 rows. In
    # the padded cube a slab across the first axis holds 61 x 5 cells, at
    # least `_SLAB_CELLS`, and one across the second 11 x 5, fewer: one axis
    # adds slabs and the other runs np.cumsum.
    qi_spec = (bl.Attribute("a", "qi", "numeric", lo=0, hi=9), bl.Attribute("b", "qi", "numeric", lo=0, hi=59))
    table = bl.generate_synthetic(5_000, 5, qi_spec=qi_spec, seed=3)
    assert [len(v) for v in table.qi_values] == [10, 60]
    assert 11 * 5 < data._SLAB_CELLS <= 61 * 5
    _assert_cube_from_kept_and_own_counts(table)


def test_qi_tuples_past_int64_radix():
    # 6 QI with 1,990 distinct values each: the radix product is about
    # 6.2e19, past 2**63, so the combined key must be re-densified.
    rng = np.random.default_rng(5)
    d, n = 6, 2_000
    distinct = np.column_stack([rng.permutation(n - 10) for _ in range(d)]).astype(float)
    rows = np.concatenate([distinct, distinct[rng.integers(0, n - 10, 10)]])
    schema = bl.DatasetSchema(tuple(bl.Attribute(f"q{k}", "qi", "numeric", lo=0, hi=n) for k in range(d))
                              + (bl.Attribute("s", "sa"),))
    table = table_from_qi_columns(schema, rows.T, np.zeros(n, dtype=np.int64), ("x",))
    assert np.prod([len(v) for v in table.qi_values], dtype=float) > 2.0**63
    _assert_qi_tuples_match_unique(table)
    assert len(table.qi_tuples[0]) == n - 10


def _colored_schema(sa_hierarchy=None):
    return bl.DatasetSchema((
        bl.Attribute("age", "qi", "numeric", lo=0, hi=99),
        bl.Attribute("color", "qi", hierarchy=bl.Hierarchy({"name": "c", "children": ["red", "blue"]})),
        bl.Attribute("kind", "sa", hierarchy=sa_hierarchy),
    ))


_KINDS = bl.Hierarchy({"name": "k", "children": ["a", "b"]})

# (schema, file text, the exact error line the row-by-row loader gave).
LOAD_ERRORS = {
    "short-row": (patient_schema, "weight,age,disease\n70,40,flu\n60,50\n",
                  "row 2: missing column 'disease'"),
    "short-row-bad-value-first": (patient_schema, "weight,age,disease\n70,40,flu\nseventy\n",
                                  "row 2: cannot parse weight='seventy' as a number"),
    "blank-lines-not-counted": (patient_schema, "weight,age,disease\n\n70,40,flu\n\n\n60,200,cold\n",
                                "row 2: age=200 outside domain [20, 80]"),
    "earlier-row-wins": (patient_schema, "weight,age,disease\n70,40,flu\n60,99,cold\n999,50,flu\n",
                         "row 2: age=99 outside domain [20, 80]"),
    "check-order-in-row": (patient_schema, "disease,age,weight\nflu,40,70\ncold,99,x\n",
                           "row 2: cannot parse weight='x' as a number"),
    "unknown-sa-leaf": (lambda: _colored_schema(_KINDS), "age,color,kind\n1,red,a\n2,blue,flu\n",
                        "row 2: unknown kind value 'flu'"),
    "brace-leaf": (_colored_schema, "age,color,kind\n1,red,a\n2,{0},b\n",
                   "row 2: unknown color value '{0}'"),
    "nan": (patient_schema, "weight,age,disease\nnan,40,flu\n",
            "row 1: weight=nan outside domain [40, 90]"),
    "empty-numeric": (patient_schema, "weight,age,disease\n70,40,flu\n70,,flu\n",
                      "row 2: cannot parse age='' as a number"),
    "no-rows": (patient_schema, "weight,age,disease\n", "{path}: no rows"),
}


@pytest.mark.parametrize("case", LOAD_ERRORS)
def test_load_error_lines(tmp_path, case):
    schema, text, message = LOAD_ERRORS[case]
    f = tmp_path / "bad.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(bl.DataError) as err:
        bl.load_table(f, schema())
    assert str(err.value) == message.replace("{path}", str(f))


def test_load_quoted_fields(tmp_path):
    f = tmp_path / "quoted.csv"
    f.write_text('weight,age,disease\n" 45 ",70,"x{y}"\n"50","2e1","a, ""b"""\n', encoding="utf-8")
    t = bl.load_table(f, patient_schema())
    assert [c.tolist() for c in t.qi_columns] == [[45.0, 50.0], [70.0, 20.0]]
    assert t.sa_values == ("x{y}", 'a, "b"') and t.sa_codes.tolist() == [0, 1]


@pytest.mark.parametrize("text, message", [
    ("age,age,color,kind\n1,2,red,a\n", "{path}: duplicate column(s) ['age']"),
    ("age,color,kind\n1,red,a\n2,blue,b,extra\n", "row 2: expected 3 fields, got 4"),
    ("age,color,kind\n1,red,a,extra\n", "row 1: expected 3 fields, got 4"),
    ("age,color,kind\n1,red,a\n999,red,a\n2,blue,b,extra\n", "row 2: age=999 outside domain [0, 99]"),
], ids=["duplicate-column", "long-row", "long-first-row", "earlier-bad-value-wins"])
def test_load_rejects_malformed_row_shapes(tmp_path, text, message):
    f = tmp_path / "bad.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(bl.DataError) as err:
        bl.load_table(f, _colored_schema())
    assert str(err.value) == message.replace("{path}", str(f))


@pytest.mark.parametrize("data, message", [
    (b"weight,age,disease\n70,40,\xff\n", "can't decode byte 0xff"),
    (b'weight,age,disease\n70,40,"' + b"x" * 200_000 + b'"\n', "field larger than field limit"),
    # Plain but for its header line, so the file falls to `csv.reader`.
    (b"weight,age,dis\xffease\n70,40,flu\n", "can't decode byte 0xff"),
], ids=["not-utf-8", "oversized-field", "not-utf-8-header"])
def test_unreadable_file_is_a_data_error(tmp_path, data, message):
    f = tmp_path / "bad.csv"
    f.write_bytes(data)
    with pytest.raises(bl.DataError, match=f"^{re.escape(str(f))}: .*{message}"):
        bl.load_table(f, patient_schema())


def test_sa_labels_apart_only_in_trailing_nuls_stay_apart(tmp_path):
    # Fixed-width numpy `S` or `U` keys would drop the NULs and merge them.
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=9), bl.Attribute("s", "sa")))
    counts = {"a": 3, "a\0": 2, "a\0\0": 4}
    rows = [{"x": i % 5, "s": s} for i, s in enumerate(s for s, c in counts.items() for _ in range(c))]
    f = tmp_path / "nul.csv"
    bl.save_table(bl.table_from_rows(schema, rows), f)
    assert data._plain_columns(f, schema) is None
    t = bl.load_table(f, schema)
    assert dict(zip(t.sa_values, np.bincount(t.sa_codes).tolist())) == counts


_JSON_VALUES = [True, 1, 1.0, np.float64(1.5), "a", [1, "a"], [1, 2], [True], [], {}, None]


@pytest.mark.parametrize("kind, items", [(int, None), ((int, float), None), (str, None), (list, None),
                                         (list, int), (dict, None)])
def test_json_field_and_json_types_agree(kind, items):
    def accepted(value):
        try:
            data.json_field({"v": value}, "v", kind, "f", items)
        except bl.DataError as exc:
            assert str(exc).startswith("f: field 'v' must be a JSON ")
            return False
        return True
    expected = [accepted(v) for v in _JSON_VALUES]
    assert data.json_types(_JSON_VALUES, kind, items).tolist() == expected
    # Exactly typed values take the set-of-types path; each alone must agree with the mixed list.
    assert [data.json_types([v], kind, items)[0] for v in _JSON_VALUES] == expected


def test_json_types_rule():
    def is_a(value, kind, items=None) -> bool:
        return bool(data.json_types([value], kind, items)[0])
    assert not is_a(True, int) and not is_a(True, (int, float))
    assert is_a(1.0, (int, float)) and not is_a(1.0, int)
    assert is_a(np.float64(1.5), (int, float))
    assert not is_a([1, "a"], list, int) and is_a([1, 2], list, int) and is_a([], list, int)
    assert not any(is_a(None, kind) for kind in (int, (int, float), str, list, dict))


def test_rows_take_the_file_validation_path():
    rows = [{"weight": 50, "age": 30, "disease": "x"}, {"weight": "bad", "disease": "x"}]
    with pytest.raises(bl.DataError, match=r"^row 2: cannot parse weight='bad' as a number$"):
        bl.table_from_rows(patient_schema(), rows)
    with pytest.raises(bl.DataError, match=r"^row 2: missing column 'age'$"):
        bl.table_from_rows(patient_schema(), rows[:1] + [{"weight": 50, "disease": "x"}])
    with pytest.raises(bl.DataError, match="^no rows$"):
        bl.table_from_rows(patient_schema(), [])
    # Categorical and SA values are read as their str: 1 and True stay apart.
    t = bl.table_from_rows(patient_schema(), [{"weight": 50, "age": 30, "disease": v} for v in (1, True, 1)])
    assert t.sa_values == ("True", "1")


_ROUND_TRIP_FLOATS = st.one_of(
    st.sampled_from([0.1 + 0.2, 5e-324, -5e-324, 2.0**53, 2.0**53 + 2, -0.0, 0.0, 1e15 + 0.5, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
)
_LABELS = st.text(st.sampled_from('ab ,"{}0\''), min_size=1, max_size=5)


@st.composite
def _printable_tables(draw):
    n = draw(st.integers(1, 30))
    leaves = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=-1e300, hi=1e300),
        bl.Attribute("c", "qi", hierarchy=bl.Hierarchy({"name": "root", "children": leaves})),
        bl.Attribute("s", "sa"),
    ))
    xs = draw(st.lists(_ROUND_TRIP_FLOATS, min_size=n, max_size=n))
    cs = draw(st.lists(st.integers(0, len(leaves) - 1), min_size=n, max_size=n))
    sa = draw(st.lists(_LABELS, min_size=n, max_size=n))
    return bl.table_from_rows(schema, [{"x": x, "c": leaves[c], "s": s} for x, c, s in zip(xs, cs, sa)])


@given(_printable_tables())
@settings(max_examples=100, deadline=None)
def test_save_load_round_trip_is_exact(tmp_path_factory, table):
    f = tmp_path_factory.mktemp("rt") / "t.csv"
    bl.save_table(table, f)
    again = bl.load_table(f, table.schema)
    assert again.sa_values == table.sa_values
    assert again.sa_codes.dtype == table.sa_codes.dtype and np.array_equal(again.sa_codes, table.sa_codes)
    for a, b in zip(again.qi_columns, table.qi_columns):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _fractional_table():
    rng = np.random.default_rng(5)
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=-1e6, hi=1e6),
        bl.Attribute("c", "qi", hierarchy=bl.Hierarchy({"name": "r", "children": ["p, q", 'say "hi"', "plain"]})),
        bl.Attribute("s", "sa"),
    ))
    xs = np.concatenate([rng.normal(0, 1000, 300), [0.1 + 0.2, 5e-324, 2.0**53, -0.0, 1e-7, 123456.5]])
    xs = xs[rng.permutation(len(xs))]
    codes = rng.integers(0, 3, len(xs))
    sa = rng.integers(0, 4, len(xs))
    return table_from_qi_columns(schema, (xs, codes), sa, ("w,1", "x y", '"z"', "plain"))


def _zip_table():
    spec = bl.default_qi_spec() + (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),)
    return bl.generate_synthetic(2000, 50, qi_spec=spec, seed=4, sa_freqs=bl.census_like_profile(50))


# sha256 of the bytes save_table wrote for these tables when it formatted
# row by row.
@pytest.mark.parametrize("make, digest", [
    (lambda: bl.generate_synthetic(2000, 50, seed=3, sa_freqs=bl.census_like_profile(50)),
     "f36bcecafcfea29976142311398fcf8c22e0174b965cab3ebda4870da1c4b6fd"),
    (_zip_table, "e47dd05d28ee19f316738846233f1a3929b571e73033a8760a0c0878ac395c14"),
    (_fractional_table, "dbe43eda0e2e9ff03db01743ddf5c97937b4a978dc6db798cb2f65aef69b25ba"),
], ids=["census", "zip", "fractional"])
def test_saved_bytes_golden(tmp_path, make, digest):
    f = tmp_path / "t.csv"
    bl.save_table(make(), f)
    assert hashlib.sha256(f.read_bytes()).hexdigest() == digest
