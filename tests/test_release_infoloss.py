from __future__ import annotations

import dataclasses
import gc
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import betalike as bl
from betalike.audit import failing_classes
from betalike.data import NUMERIC, QI, Attribute, DataError
from betalike.release import EquivalenceClass

from conftest import DISEASE_HIERARCHY, balanced_hierarchy, mixed_qi_tables, release_to_obj, traced_peak
from test_generalize import _golden_tables


def cat_schema():
    h = bl.Hierarchy(DISEASE_HIERARCHY)
    return bl.DatasetSchema((
        bl.Attribute("age", "qi", "numeric", lo=40, hi=70),
        bl.Attribute("illness", "qi", "categorical", hierarchy=h),
        bl.Attribute("s", "sa"),
    )), h


def test_generalize_ec_single_record():
    schema, _ = cat_schema()
    t = bl.table_from_rows(schema, [{"age": 52, "illness": "angina", "s": "x"}])
    (ec,) = bl.build_ec(t, np.array([0]), [1])
    assert ec.extents == ((52.0, 52.0), (4.0, 4.0))


def test_generalize_ec_min_max_and_lca():
    schema, h = cat_schema()
    rows = [
        {"age": 40, "illness": "headache", "s": "x"},
        {"age": 60, "illness": "epilepsy", "s": "x"},
        {"age": 50, "illness": "brain tumors", "s": "x"},
    ]
    t = bl.table_from_rows(schema, rows)
    (ec,) = bl.build_ec(t, np.arange(3), [3])
    assert ec.extents == ((40.0, 60.0), (0.0, 2.0))
    assert h.lca(0, 2).label == "nervous"


def _release(schema, *classes):
    """A release whose classes, each (extents, size), hold one SA value."""
    ecs = tuple(EquivalenceClass(tuple(extents), np.array([size])) for extents, size in classes)
    n = sum(size for _, size in classes)
    return bl.Release(schema, bl.Distribution(("v",), (n,), n), 1.0, 0, 16, ecs)


def _ail_per_class(release):
    """The per-class formula: each class's weighted parts added in schema
    order, then the size-weighted class losses in class order."""
    schema = release.schema
    total = 0.0
    for ec in release.ecs:
        loss = 0.0
        for w, attr, ext in zip(schema.qi_weights(), schema.qi_attributes, ec.extents):
            lo, hi = ext
            if attr.kind == "numeric":
                part = (hi - lo) / (attr.hi - attr.lo)
            else:
                leaves = hi - lo + 1
                part = 0.0 if leaves == 1 else leaves / attr.hierarchy.n_leaves
            loss += w * part
        total += ec.size * loss
    return total / sum(ec.size for ec in release.ecs)


def _zip_release():
    qi = bl.default_qi_spec() + (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),)
    table = bl.generate_synthetic(5_000, 50, qi_spec=qi, seed=3, sa_freqs=bl.census_like_profile(50))
    return bl.generalize(table, 4.0, seed=1)


def _weighted_mixed_release():
    """Weighted schema, a categorical axis (with a one-leaf internal node,
    "blood"), and point extents."""
    h = bl.Hierarchy(DISEASE_HIERARCHY)
    schema = bl.DatasetSchema((
        bl.Attribute("age", "qi", "numeric", lo=40, hi=70, weight=0.5),
        bl.Attribute("illness", "qi", "categorical", hierarchy=h, weight=0.3),
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1, weight=0.2),
        bl.Attribute("s", "sa"),
    ))
    return _release(
        schema,
        (((52, 52), (4, 4), (0.25, 0.25)), 3),
        (((40, 61.5), (0, 2), (0.1, 0.7)), 5),
        (((45, 70), (5, 5), (0, 1)), 2),
        (((40, 70), (0, 5), (1 / 3, 0.9)), 7),
    )


@pytest.mark.parametrize("make", [
    lambda census: census,
    lambda census: _zip_release(),
    lambda census: _weighted_mixed_release(),
], ids=["census", "zip-qi", "weighted-mixed"])
def test_ail_equals_the_per_class_formula(census_release_b4, make):
    release = make(census_release_b4)
    assert bl.ail(release) == _ail_per_class(release)


def test_ail_numeric_part():
    schema = bl.DatasetSchema((bl.Attribute("age", "qi", "numeric", lo=40, hi=70), bl.Attribute("s", "sa")))
    assert bl.ail(_release(schema, (((52, 52),), 1))) == 0.0
    assert bl.ail(_release(schema, (((40, 70),), 1))) == 1.0
    assert bl.ail(_release(schema, (((40, 60),), 1))) == pytest.approx(2 / 3)


def test_ail_categorical_part():
    schema, _ = cat_schema()
    schema = bl.DatasetSchema(schema.attributes[1:])
    assert bl.ail(_release(schema, (((0, 0),), 1))) == 0.0
    assert bl.ail(_release(schema, (((0, 5),), 1))) == 1.0
    assert bl.ail(_release(schema, (((0, 2),), 1))) == 0.5


def test_ail_weighted():
    def schema(weights=(None, None, None)):
        return bl.DatasetSchema((
            bl.Attribute("a", "qi", "numeric", lo=0, hi=1, weight=weights[0]),
            bl.Attribute("b", "qi", "numeric", lo=0, hi=1, weight=weights[1]),
            bl.Attribute("c", "qi", "numeric", lo=0, hi=2, weight=weights[2]),
            bl.Attribute("s", "sa"),
        ))
    spread = ((0, 2 / 3), (0.5, 0.5), (0, 1))
    assert bl.ail(_release(schema(), (spread, 3))) == pytest.approx((2 / 3 + 0.0 + 0.5) / 3)
    flat = ((0, 0), (1, 1), (2, 2))
    assert bl.ail(_release(schema(), (flat, 1))) == 0.0
    two = ((0, 1), (0, 0), (1, 1))
    assert bl.ail(_release(schema((0.5, 0.5, 0.0)), (two, 2))) == 0.5


def test_ail_weighted_mean():
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("s", "sa"),
    ))
    rel = _release(schema, (((0, 0.25),), 4), (((0, 0.5),), 6))
    assert bl.ail(rel) == pytest.approx((4 * 0.25 + 6 * 0.5) / 10)


def test_ail_extremes(example2):
    release = bl.generalize(example2, 2.0, seed=1)
    assert 0.0 < bl.ail(release) < 1.0
    # Singleton classes carry no loss.
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("s", "sa"),
    ))
    rel = _release(schema, *[(((0.3, 0.3),), 1)] * 5)
    assert bl.ail(rel) == 0.0


def test_merging_never_shrinks_loss(example2):
    release = bl.generalize(example2, 2.0, seed=2)
    def loss(ec):
        return bl.ail(dataclasses.replace(release, ecs=(ec,)))
    for a, b in zip(release.ecs, release.ecs[1:]):
        rows = np.concatenate([a.rows, b.rows])
        (merged,) = bl.build_ec(example2, rows, [len(rows)])
        assert loss(merged) >= loss(a) - 1e-12
        assert loss(merged) >= loss(b) - 1e-12


def test_release_round_trip(tmp_path, example2):
    release = bl.generalize(example2, 2.0, seed=9)
    path = tmp_path / "release.json"
    bl.save_release(release, path)
    loaded = bl.load_release(path, example2.schema)
    assert loaded.beta == release.beta
    assert loaded.seed == release.seed
    assert loaded.curve_order == release.curve_order
    assert loaded.dist == release.dist
    assert len(loaded.ecs) == len(release.ecs)
    for a, b in zip(loaded.ecs, release.ecs):
        assert (a.sa_counts == b.sa_counts).all()
        assert a.extents == b.extents
        assert a.rows is None
    assert bl.achieved_beta(loaded) == bl.achieved_beta(release)
    assert bl.ail(loaded) == pytest.approx(bl.ail(release))


def test_load_release_rejects_garbage(tmp_path, example2):
    p = tmp_path / "x.json"
    p.write_text("{}", encoding="utf-8")
    with pytest.raises(bl.DataError, match="not a generalized release"):
        bl.load_release(p, example2.schema)


def test_class_counts_are_summed_without_wrapping(tmp_path):
    """Per-value sums past 2**64, which int64 arithmetic would wrap to the
    published count, are still a mismatch."""
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=10), bl.Attribute("s", "sa")))
    big = 2**63 - 1
    def cls(sa):
        return {"size": sum(sa.values()), "extents": [{"lo": 0, "hi": 10}], "sa": sa}
    path = tmp_path / "r.json"
    path.write_text(json.dumps({
        "kind": "generalized-release", "beta": 1.0, "seed": 0, "curve_order": 16, "qi": ["x"],
        "sa": {"attribute": "s", "values": ["a", "b"], "counts": [1, big - 1], "total": big},
        "classes": [cls({"b": big})] * 3 + [cls({"a": 1, "b": 1})],
    }), encoding="utf-8")
    with pytest.raises(DataError, match=f"counts of 'b' sum to {3 * big + 1}, but"):
        bl.load_release(path, schema)


def test_empty_class_rejected(example2):
    with pytest.raises(bl.DataError, match="empty"):
        bl.build_ec(example2, np.array([], dtype=np.int64), [0])
    with pytest.raises(bl.DataError, match="empty"):
        bl.build_ec(example2, np.arange(3), [2, 0, 1])


# -- the batched class build ---------------------------------------------------

def generalize_ec_per_class(table, rows):
    """The per-class description that the batched `build_ec` replaced, kept
    as its oracle."""
    if len(rows) == 0:
        raise DataError("cannot generalize an empty class")
    extents = []
    for attr, col in zip(table.schema.qi_attributes, table.qi_columns):
        member = col[rows]
        if attr.kind == NUMERIC:
            extents.append((float(member.min()), float(member.max())))
        else:
            node = attr.hierarchy.lca(int(member.min()), int(member.max()))
            extents.append((float(node.leaf_lo), float(node.leaf_hi)))
    return tuple(extents)


def build_ec_per_class(table, rows):
    counts = np.bincount(table.sa_codes[rows], minlength=table.m)
    return EquivalenceClass(generalize_ec_per_class(table, rows), counts, rows)


@st.composite
def partitioned_tables(draw):
    """A table over numeric and categorical QI axes with several SA values,
    its rows in random order and cut into classes; single-row classes are
    common."""
    table = draw(mixed_qi_tables(sa_values=("a", "b", "c", "d")))
    n = table.n_rows
    order = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n - 1)))
    return table, order, np.diff([0, *cuts, n]).tolist()


@given(partitioned_tables())
@settings(max_examples=150, deadline=None)
def test_batched_build_matches_the_per_class_build(case):
    table, rows, sizes = case
    got = bl.build_ec(table, rows, sizes)
    bounds = np.cumsum([0, *sizes])
    assert len(got) == len(sizes)
    for ec, a, b in zip(got, bounds, bounds[1:]):
        want = build_ec_per_class(table, rows[a:b])
        assert ec.extents == want.extents
        assert ec.sa_counts.tolist() == want.sa_counts.tolist()
        assert ec.rows.tolist() == want.rows.tolist()


def test_class_sizes_must_cover_the_rows(example2):
    with pytest.raises(bl.DataError, match="add up"):
        bl.build_ec(example2, np.arange(5), [2, 2])


def test_generalize_peak_memory():
    # 2,128 classes. Building each class from its own concatenated rows,
    # with the buckets still held, peaked at 17.6 MB here; the batched
    # build after freeing them peaks at about 13.9 MB.
    table = bl.generate_synthetic(200_000, 50, seed=1, sa_freqs=bl.census_like_profile(50))
    assert traced_peak(bl.generalize, table, 4.0, 1) < 17 * 2**20


# -- the class arrays of a release ---------------------------------------------

@pytest.mark.parametrize("name", ["census", "zip", "census-100k", "zip-100k"])
def test_class_arrays_equal_the_per_class_build(name, census_table):
    # The golden tables, and a census and a zip table with about 1k classes each.
    if name == "census-100k":
        table = census_table
    elif name == "zip-100k":
        spec = bl.default_qi_spec() + (Attribute("zip", QI, NUMERIC, lo=0, hi=99999),)
        table = bl.generate_synthetic(100_000, 50, seed=1, sa_freqs=bl.census_like_profile(50), qi_spec=spec)
    else:
        table = _golden_tables()[name]
    release = bl.generalize(table, 4.0, seed=1)
    want = [build_ec_per_class(table, ec.rows) for ec in release.ecs]
    assert len(want) >= (1000 if "-" in name else 10)
    assert release.class_counts.dtype == np.int64
    assert np.array_equal(release.class_counts, [ec.sa_counts for ec in want])
    for k, (lo, hi) in enumerate(release.class_extents):
        assert lo.dtype == hi.dtype == float
        assert (lo.tolist(), hi.tolist()) == tuple(map(list, zip(*(ec.extents[k] for ec in want))))
    rows = np.concatenate([ec.rows for ec in release.ecs])
    assert np.array_equal(np.sort(rows), np.arange(table.n_rows))
    assert [len(ec.rows) for ec in release.ecs] == release.class_counts.sum(axis=1).tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_integer_qi_values_give_float_extents(tmp_path, dtype):
    # A table built from `np.unique` of an integer column has integer
    # numeric `qi_values`; its release is the float table's, file and all.
    table = bl.generate_synthetic(2_000, 10, seed=1)
    ints = dataclasses.replace(table, qi_values=tuple(
        v.astype(dtype) if a.kind == NUMERIC else v for a, v in zip(table.schema.qi_attributes, table.qi_values)))
    want, release = bl.generalize(table, 2.0, seed=1), bl.generalize(ints, 2.0, seed=1)
    for (lo, hi), (want_lo, want_hi) in zip(release.class_extents, want.class_extents):
        assert lo.dtype == hi.dtype == np.float64
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    bl.save_release(want, tmp_path / "float.json")
    bl.save_release(release, tmp_path / "int.json")
    assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()
    loaded = bl.load_release(tmp_path / "int.json", table.schema)
    for (lo, hi), (want_lo, want_hi) in zip(loaded.class_extents, want.class_extents):
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def _arrays(release):
    """Every array a release holds or caches, and those its class views show."""
    ec = release.ecs[-1]
    views = [ec.sa_counts] + ([] if ec.rows is None else [ec.rows])
    return [release.class_counts, *chain.from_iterable(release.class_extents), release.sa_prefix,
            *chain.from_iterable(release.distinct_extents), *views]


def test_release_arrays_are_read_only(tmp_path):
    table = bl.generate_synthetic(2_000, 10, seed=1)
    release = bl.generalize(table, 2.0, seed=1)
    path = tmp_path / "r.json"
    bl.save_release(release, path)
    achieved = bl.achieved_beta(release)
    for r in (release, bl.load_release(path, table.schema)):
        for a in _arrays(r):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    assert bl.achieved_beta(release) == achieved
    # The rows given to build_ec stay the caller's to write.
    rows = np.arange(table.n_rows)
    bl.build_ec(table, rows, [table.n_rows])
    rows[0] = 1


def test_replaced_classes_are_what_the_release_reads(census_release_b4):
    # The pattern the benchmark's self-test uses to break a release: its
    # first class holds only one value.
    release = census_release_b4
    ec = release.ecs[0]
    counts = np.zeros_like(ec.sa_counts)
    counts[int(np.argmax(ec.sa_counts))] = ec.size
    broken = dataclasses.replace(release, ecs=(EquivalenceClass(ec.extents, counts, ec.rows),) + release.ecs[1:])
    assert np.array_equal(broken.class_counts, np.vstack([counts, release.class_counts[1:]]))
    assert [lo.tolist() for lo, _ in broken.class_extents] == [lo.tolist() for lo, _ in release.class_extents]
    assert np.array_equal(np.concatenate([c.rows for c in broken.ecs]), np.concatenate([c.rows for c in release.ecs]))
    assert failing_classes(release) == []
    assert failing_classes(broken) == [0]
    assert math.isinf(bl.achieved_beta(broken))
    # A release rebuilt from its own views holds the same arrays.
    same = dataclasses.replace(release, ecs=list(release.ecs))
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(same), _arrays(release)))


def test_load_release_leaves_no_reference_cycle(tmp_path, example2):
    # A cycle through the loader's checks would keep the parsed file alive
    # until the next cycle collection, and raise a process's peak memory.
    path = tmp_path / "r.json"
    bl.save_release(bl.generalize(example2, 2.0, seed=1), path)
    gc.collect()
    gc.disable()
    try:
        bl.load_release(path, example2.schema)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_release_without_classes_or_rows():
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=10), bl.Attribute("s", "sa")))
    dist = bl.Distribution(("a", "b"), (1, 2), 3)
    empty = bl.Release(schema, dist, 1.0, 0, 16, ())
    assert len(empty.ecs) == 0 and empty.ecs[:] == () and list(empty.ecs) == []
    assert empty.class_counts.shape == (0, 2) and empty.n_rows == 0
    with pytest.raises(IndexError):
        empty.ecs[0]
    ecs = [EquivalenceClass(((0, 4),), np.array([1, 0])), EquivalenceClass(((5, 10),), np.array([0, 2]))]
    release = bl.Release(schema, dist, 1.0, 0, 16, ecs)
    assert release.class_counts.tolist() == [[1, 0], [0, 2]]
    assert [(lo.tolist(), hi.tolist()) for lo, hi in release.class_extents] == [([0.0, 5.0], [4.0, 10.0])]
    last = release.ecs[-1]
    assert last.extents == ((5.0, 10.0),) and last.sa_counts.tolist() == [0, 2] and last.rows is None
    assert [ec.size for ec in release.ecs[::-1]] == [2, 1]
    assert bl.ail(release) == pytest.approx((1 * 0.4 + 2 * 0.5) / 3)


def test_a_release_without_classes_has_no_ail_and_does_not_load_back(tmp_path):
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=10), bl.Attribute("s", "sa")))
    empty = bl.Release(schema, bl.Distribution(("a", "b"), (1, 2), 3), 1.0, 0, 16, ())
    with pytest.raises(DataError, match="^release has no classes$"):
        bl.ail(empty)
    path = tmp_path / "r.json"
    bl.save_release(empty, path)
    with pytest.raises(DataError) as info:
        bl.load_release(path, schema)
    assert str(info.value) == f"{path}: field 'classes': counts of 'a' sum to 0, but 'sa' field 'counts' gives 1"


# -- save_release against the object form ----------------------------------------

NUMBERS = [-3.5, -1, 0, 0.1, 0.25, 1 / 3, 2, 1e16, 12345.678]
SHADOWED = "shadowed"


@st.composite
def releases(draw):
    """Hand-built releases over numeric and categorical QI whose SA values
    and hierarchy labels include non-ASCII and quoted strings, whose
    numeric extents include fractions, large and negative floats, and whose
    hierarchies may put a node above the root with the root its only child."""
    names = st.sampled_from(["a", "é", "naïve", "日本", 'quote"d', "back\\slash", "tab\tx", "😀"])
    attrs = []
    for k in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            attrs.append(bl.Attribute(f"n{k}", "qi", "numeric", lo=-10, hi=1e17))
        else:
            labels = draw(st.lists(names, min_size=2, max_size=5, unique=True))
            leaves = [f"{label}.{k}" for label in labels]
            hierarchy = balanced_hierarchy(leaves, fanout=2, root_label=f"Ω{k}")
            if draw(st.booleans()):
                # A single-child chain: the root's only child is an internal
                # node with the same leaf span, the one a label must name.
                hierarchy = bl.Hierarchy({"name": f"{SHADOWED}{k}", "children": [hierarchy.to_spec()]})
            attrs.append(bl.Attribute(f"c{k}", "qi", hierarchy=hierarchy))
    values = tuple(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    schema = bl.DatasetSchema((*attrs, bl.Attribute("sä", "sa")))
    ecs = []
    for _ in range(draw(st.integers(1, 6))):
        extents = []
        for attr in attrs:
            if attr.kind == NUMERIC:
                lo, hi = sorted(draw(st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=2)))
                extents.append((float(lo), float(hi)))
            else:
                a, b = sorted(draw(st.lists(st.integers(0, attr.hierarchy.n_leaves - 1), min_size=2, max_size=2)))
                node = attr.hierarchy.lca(a, b)
                extents.append((float(node.leaf_lo), float(node.leaf_hi)))
        counts = draw(st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values)).filter(any))
        ecs.append(EquivalenceClass(tuple(extents), np.asarray(counts, dtype=np.int64)))
    totals = np.sum([ec.sa_counts for ec in ecs], axis=0)
    assume(totals.all())
    order = np.argsort(totals, kind="stable")
    dist = bl.Distribution(tuple(values[i] for i in order), tuple(int(totals[i]) for i in order),
                           int(totals.sum()))
    ecs = [EquivalenceClass(ec.extents, ec.sa_counts[order]) for ec in ecs]
    beta = draw(st.sampled_from([0.1, 1.0, 4.0, 1e16]))
    return bl.Release(schema, dist, beta, draw(st.integers(0, 2**40)), 16, tuple(ecs))


@given(releases())
@settings(max_examples=150, deadline=None)
def test_saved_bytes_equal_the_object_form(tmp_path_factory, release):
    path = tmp_path_factory.mktemp("save") / "r.json"
    bl.save_release(release, path)
    want = json.dumps(release_to_obj(release), indent=1) + "\n"
    assert path.read_text(encoding="utf-8") == want
    assert SHADOWED not in want
    # A loaded release has no member rows and writes the same bytes.
    loaded = bl.load_release(path, release.schema)
    again = path.with_name("again.json")
    bl.save_release(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_saved_generalized_release_equals_the_object_form(tmp_path, census_release_b4):
    path = tmp_path / "r.json"
    bl.save_release(census_release_b4, path)
    assert path.read_text(encoding="utf-8") == json.dumps(release_to_obj(census_release_b4), indent=1) + "\n"
