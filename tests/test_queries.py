from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betalike as bl
from betalike import queries
from betalike.perturb import _in_published_order
from betalike.queries import AggregateQuery
from betalike.release import EquivalenceClass, Release

from conftest import table1


def test_workload_deterministic(example2):
    a = bl.gen_workload(example2, 1, 0.25, 20, seed=3)
    b = bl.gen_workload(example2, 1, 0.25, 20, seed=3)
    assert a == b
    assert a != bl.gen_workload(example2, 1, 0.25, 20, seed=4)


def test_workload_interval_lengths(example2):
    # lam=1, theta=0.25: both constrained axes cover half their domain.
    queries = bl.gen_workload(example2, 1, 0.25, 50, seed=1)
    for q in queries:
        assert len(q.qi) == 1
        k, lo, hi = q.qi[0]
        attr = example2.schema.qi_attributes[k]
        assert hi - lo == pytest.approx(0.5 * (attr.hi - attr.lo))
        assert q.sa_hi - q.sa_lo + 1 == round(0.5 * example2.m)


def test_workload_near_full_domain(example2):
    queries = bl.gen_workload(example2, 1, 0.999, 10, seed=2)
    for q in queries:
        k, lo, hi = q.qi[0]
        attr = example2.schema.qi_attributes[k]
        assert (hi - lo) / (attr.hi - attr.lo) > 0.999 ** (1 / 2) - 1e-9
        assert q.sa_lo == 0 and q.sa_hi == example2.m - 1


def test_workload_validation(example2):
    with pytest.raises(bl.DataError, match="lam"):
        bl.gen_workload(example2, 0, 0.1, 5)
    with pytest.raises(bl.DataError, match="lam"):
        bl.gen_workload(example2, 3, 0.1, 5)
    with pytest.raises(bl.DataError, match="theta"):
        bl.gen_workload(example2, 1, 1.0, 5)
    with pytest.raises(bl.DataError, match=r"workload size must be >= 0, got -3"):
        bl.gen_workload(example2, 2, 0.1, -3)
    assert bl.gen_workload(example2, 2, 0.1, 0) == []


@pytest.mark.parametrize("cells_per_row", [0, 8])
def test_every_report_handles_an_empty_workload(example2, cells_per_row):
    release = bl.generalize(example2, 2.0, seed=1)
    dist = bl.sa_distribution(example2)
    model = bl.build_model(dist, 2.0)
    noisy = bl.perturb(example2, model, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "CUBE_CELLS_PER_ROW", cells_per_row)
        reports = [
            bl.workload_report_generalized(example2, release, []),
            bl.workload_report_perturbed(example2, noisy, model, []),
            bl.workload_report_baseline(example2, dist, []),
            *bl.perturbation_reports(example2, noisy, model, []).values(),
        ]
    for report in reports:
        assert report.n_queries == 0 and report.dropped == 0
        assert len(report.est) == len(report.errors) == 0
        assert report.median_error is None


def test_exact_count_full_and_empty(example2):
    m = example2.m
    full = AggregateQuery(((0, 40.0, 90.0), (1, 20.0, 80.0)), 0, m - 1)
    assert bl.exact_count(example2, full) == example2.n_rows
    empty = AggregateQuery(((0, 0.0, 1.0),), 0, m - 1)
    assert bl.exact_count(example2, empty) == 0


def test_exact_count_patient_records():
    t = table1()
    # age in [45, 55], any weight, SA in {brain tumors, heart murmur, anemia}
    # which is the contiguous code range 2..4.
    assert t.sa_values[2:5] == ("brain tumors", "heart murmur", "anemia")
    q = AggregateQuery(((1, 45.0, 55.0),), 2, 4)
    assert bl.exact_count(t, q) == 3


def one_ec_release(extent, counts, values=("a", "b")):
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))
    total = sum(counts)
    dist = bl.Distribution(values, tuple(sorted(counts)), total)
    ec = EquivalenceClass((extent,), np.asarray(counts, dtype=np.int64))
    return Release(schema, dist, 1.0, 0, 16, (ec,))


def generalized_estimate(release, query, table=None):
    """The generalized report's estimate of one query; the table only
    supplies the precise count, so any table of the release's schema does."""
    if table is None:
        table = bl.table_from_rows(release.schema, [{"x": 0, "s": "a"}])
    return bl.workload_report_generalized(table, release, [query]).est[0]


def reference_overlap(kind, lo, hi, q_lo, q_hi):
    """Per class, the share of its extent inside [q_lo, q_hi], as the
    per-query estimator computed it."""
    if kind == "categorical":
        inter = np.minimum(hi, q_hi) - np.maximum(lo, q_lo) + 1.0
        return np.clip(inter, 0.0, None) / (hi - lo + 1.0)
    width = hi - lo
    point = width == 0.0
    inter = np.clip(np.minimum(hi, q_hi) - np.maximum(lo, q_lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(point, ((lo >= q_lo) & (lo <= q_hi)).astype(float), inter / width)


def sa_span(query, m):
    """The SA codes [first, end) inside 0..m-1 that the query's range selects."""
    first = min(max(query.sa_lo, 0), m)
    return first, min(max(query.sa_hi + 1, first), m)


def baseline_reference(table, dist, query):
    """The baseline estimate of one query: the rows matching its QI
    predicates times the frequency of its SA range."""
    first, end = sa_span(query, dist.m)
    return bl.exact_count(table, AggregateQuery(query.qi, 0, dist.m - 1)) * dist.freqs()[first:end].sum()


def reference_generalized(release, query):
    """The per-query generalized estimate, one query at a time: per class,
    the SA match from a (classes, m + 1) prefix times the product, in axis
    order, of the overlap fractions with the intersection of the query's
    predicates on each constrained axis (a NaN bound stays NaN)."""
    cum = np.cumsum(np.pad(release.class_counts, ((0, 0), (1, 0))), axis=1).astype(float)
    first, end = sa_span(query, release.dist.m)
    frac = np.ones(len(cum))
    for k, attr in enumerate(release.schema.qi_attributes):
        bounds = np.asarray([(lo, hi) for j, lo, hi in query.qi if j == k], dtype=float)
        if len(bounds):
            q_lo, q_hi = np.max(bounds[:, 0]), np.min(bounds[:, 1])
            frac *= reference_overlap(attr.kind, *release.class_extents[k], q_lo, q_hi)
    return float(np.dot(cum[:, end] - cum[:, first], frac))


def test_estimate_generalized_contained_is_exact():
    rel = one_ec_release((2, 4), [4, 6])
    q = AggregateQuery(((0, 0.0, 10.0),), 0, 0)
    assert generalized_estimate(rel, q) == pytest.approx(4.0)


def test_estimate_generalized_disjoint_is_zero():
    rel = one_ec_release((2, 4), [4, 6])
    q = AggregateQuery(((0, 5.0, 10.0),), 0, 1)
    assert generalized_estimate(rel, q) == 0.0


def test_estimate_generalized_half_overlap():
    rel = one_ec_release((2, 4), [10, 10])
    q = AggregateQuery(((0, 3.0, 10.0),), 0, 0)
    assert generalized_estimate(rel, q) == pytest.approx(5.0)


def test_estimate_generalized_point_extent():
    rel = one_ec_release((3, 3), [2, 2])
    inside = AggregateQuery(((0, 2.0, 4.0),), 0, 1)
    outside = AggregateQuery(((0, 4.0, 9.0),), 0, 1)
    assert generalized_estimate(rel, inside) == 4.0
    assert generalized_estimate(rel, outside) == 0.0


def test_estimate_generalized_categorical_span(example2):
    rel = bl.generalize(example2, 2.0, seed=1)
    # Full-domain query over every axis reproduces the SA-filtered count.
    m = example2.m
    q = AggregateQuery(((0, 40.0, 90.0), (1, 20.0, 80.0)), 0, m - 1)
    assert generalized_estimate(rel, q, example2) == pytest.approx(example2.n_rows)


def identity_model(dist):
    from betalike.perturb import PerturbationModel
    m = dist.m
    return PerturbationModel(dist, 1.0, np.ones(m), 1.0 / m, np.ones(m), np.eye(m), 1.0)


def test_estimate_perturbed_identity_model(example2):
    dist = bl.sa_distribution(example2)
    model = identity_model(dist)
    noisy = bl.perturb(example2, model, seed=0)
    for q in bl.gen_workload(example2, 2, 0.3, 20, seed=5):
        assert bl.estimate_perturbed(noisy, model, q) == pytest.approx(
            bl.exact_count(example2, q)
        )


def test_estimate_perturbed_full_sa_domain_conserves(example2):
    dist = bl.sa_distribution(example2)
    model = bl.build_model(dist, 2.0)
    noisy = bl.perturb(example2, model, seed=1)
    q = AggregateQuery(((0, 40.0, 70.0),), 0, example2.m - 1)
    filtered = int(((example2.qi_columns[0] >= 40) & (example2.qi_columns[0] <= 70)).sum())
    assert bl.estimate_perturbed(noisy, model, q) == pytest.approx(filtered, abs=1e-6)


def test_baseline_estimate(example2):
    dist = bl.sa_distribution(example2)
    q = AggregateQuery(((0, 40.0, 90.0), (1, 20.0, 80.0)), 0, 1)
    expected = example2.n_rows * (dist.freq(0) + dist.freq(1))
    assert bl.workload_report_baseline(example2, dist, [q]).est[0] == pytest.approx(expected)


def test_evaluate_workload_truth_is_error_free(example2):
    # Singleton classes have point extents, so their estimates are the
    # precise counts.
    classes = bl.build_ec(example2, np.arange(example2.n_rows), [1] * example2.n_rows)
    release = Release(example2.schema, bl.sa_distribution(example2), 2.0, 0, 16, classes)
    workload = bl.gen_workload(example2, 2, 0.4, 30, seed=9)
    report = bl.workload_report_generalized(example2, release, workload)
    kept = report.n_queries - report.dropped
    assert len(report.errors) == kept
    if kept:
        assert report.median_error == 0.0


def test_evaluate_workload_drops_zero_precision(example2):
    q = AggregateQuery(((0, 0.0, 1.0),), 0, 0)      # matches nothing
    report = bl.workload_report_baseline(example2, bl.sa_distribution(example2), [q])
    assert report.dropped == 1
    assert report.median_error is None


def test_point_classes_estimate_exactly():
    # Singleton classes have zero-width extents, so the uniform-spread
    # estimate degenerates to an exact count.
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=100),
        bl.Attribute("s", "sa"),
    ))
    rows = [{"x": (17 * i) % 100, "s": "only"} for i in range(12)]
    t = bl.table_from_rows(schema, rows)
    release = bl.generalize(t, 1.0, seed=0)
    assert all(ec.size == 1 for ec in release.ecs)
    workload = bl.gen_workload(t, 1, 0.3, 40, seed=2)
    report = bl.workload_report_generalized(t, release, workload)
    assert report.est.tolist() == [bl.exact_count(t, q) for q in workload]


def test_report_serialization(tmp_path, example2):
    workload = [
        AggregateQuery(((0, 40.0, 90.0), (1, 20.0, 80.0)), 0, example2.m - 1),
        AggregateQuery(((0, 0.0, 1.0),), 0, 0),        # prec = 0, dropped
    ]
    report = bl.workload_report_baseline(example2, bl.sa_distribution(example2), workload)
    path = tmp_path / "report.csv"
    bl.save_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "query,prec,est,relative_error"
    assert lines[2].endswith(",")        # dropped query has no error column
    assert "dropped=1" in lines[-1]


def test_relative_errors_are_scale_free(example2):
    rel = bl.generalize(example2, 2.0, seed=2)
    workload = bl.gen_workload(example2, 2, 0.3, 40, seed=3)
    base = bl.workload_report_generalized(example2, rel, workload)

    doubled_rows = {}
    for attr, col in zip(example2.schema.qi_attributes, example2.qi_columns):
        doubled_rows[attr.name] = np.concatenate([col, col])
    rows = []
    for i in range(2 * example2.n_rows):
        j = i % example2.n_rows
        rows.append({
            "weight": float(example2.qi_columns[0][j]),
            "age": float(example2.qi_columns[1][j]),
            "disease": example2.sa_values[int(example2.sa_codes[j])],
        })
    doubled = bl.table_from_rows(example2.schema, rows)
    doubled_ecs = tuple(
        EquivalenceClass(ec.extents, ec.sa_counts * 2) for ec in rel.ecs
    )
    doubled_rel = Release(
        rel.schema,
        bl.sa_distribution(doubled),
        rel.beta, rel.seed, rel.curve_order,
        doubled_ecs,
    )
    scaled = bl.workload_report_generalized(doubled, doubled_rel, workload)
    assert scaled.errors == pytest.approx(base.errors)


# Workload counting: the prefix-sum cube and the row path over SA-ordered
# codes must both reproduce per-query counts exactly.

# Non-integer values, so inclusive bounds drawn from this pool land exactly
# on data values.
NUMERIC_POOL = (0.0, 0.25, 1.5, 2.75, 3.0, 4.125, 7.5, 10.0)
LEAVES = ("a", "b", "c", "d")
FITS_ANY_CUBE = 10**6


def _bounds(attr):
    """Data values, values between them, out-of-domain values, and NaN (a
    workload file may hold one; it matches no row)."""
    if attr.kind == "numeric":
        within = st.sampled_from(NUMERIC_POOL) | st.floats(-1.0, 11.0)
    else:
        within = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]) | st.floats(-0.5, 3.5)
    return within | st.just(float("nan"))


@st.composite
def tables_and_workloads(draw):
    d = draw(st.integers(1, 3))
    attrs = []
    for k in range(d):
        if draw(st.booleans()):
            attrs.append(bl.Attribute(f"x{k}", "qi", "numeric", lo=0, hi=10))
        else:
            tree = bl.Hierarchy({"name": "any", "children": list(LEAVES)})
            attrs.append(bl.Attribute(f"c{k}", "qi", hierarchy=tree))
    schema = bl.DatasetSchema((*attrs, bl.Attribute("s", "sa")))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        row = {"s": draw(st.sampled_from("pqrs"))}
        for attr in attrs:
            pool = NUMERIC_POOL if attr.kind == "numeric" else LEAVES
            row[attr.name] = draw(st.sampled_from(pool))
        rows.append(row)
    table = bl.table_from_rows(schema, rows)
    workload = []
    for _ in range(draw(st.integers(0, 8))):
        # Often fewer axes than d; an axis may be constrained twice.
        axes = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d + 1))
        # Bounds are drawn independently, so some intervals are inverted
        # and match nothing.
        preds = tuple((k, draw(_bounds(attrs[k])), draw(_bounds(attrs[k]))) for k in axes)
        sa_lo = draw(st.integers(0, table.m - 1))
        workload.append(AggregateQuery(preds, sa_lo, draw(st.integers(sa_lo, table.m - 1))))
    return table, workload


def reference_histogram(table, query):
    """SA histogram of the rows matching the QI predicates, row by row."""
    hist = np.zeros(table.m, dtype=np.int64)
    columns = table.qi_columns
    for i in range(table.n_rows):
        if all(lo <= float(columns[k][i]) <= hi for k, lo, hi in query.qi):
            hist[table.sa_codes[i]] += 1
    return hist


def perturbation_of(table):
    dist = bl.sa_distribution(table)
    try:
        model = bl.build_model(dist, 4.0)
    except bl.PerturbationError:
        model = identity_model(dist)
    return bl.perturb(table, model, seed=0), model


@pytest.mark.parametrize("cells_per_row", [0, FITS_ANY_CUBE])
@given(tables_and_workloads())
@settings(max_examples=80, deadline=None)
def test_qi_histograms_match_per_query_counts(cells_per_row, case):
    table, workload = case
    # SA ranges reaching past both ends of the codes, and inverted ones.
    odd_sa = [AggregateQuery(q.qi, lo, hi) for q in workload
              for lo, hi in ((-2, table.m + 1), (q.sa_hi, q.sa_lo - 1))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "CUBE_CELLS_PER_ROW", cells_per_row)
        hist = queries._qi_histograms(table, workload)
        rows, prec = queries._workload_counts(table, workload + odd_sa)
    assert hist.shape == (len(workload), table.m) and hist.dtype == np.int64
    expected = [reference_histogram(table, q) for q in workload]
    assert np.array_equal(hist, np.asarray(expected, dtype=np.int64).reshape(hist.shape))
    assert np.array_equal(rows, [reference_histogram(table, q).sum() for q in workload + odd_sa])
    assert np.array_equal(prec, [bl.exact_count(table, q) for q in workload + odd_sa])
    # The row path never builds the cube.
    assert ("prefix_cube" in vars(table)) == (cells_per_row == FITS_ANY_CUBE)


@pytest.mark.parametrize("cells_per_row", [0, FITS_ANY_CUBE])
@given(tables_and_workloads())
@settings(max_examples=60, deadline=None)
def test_workload_reports_match_per_query_estimators(cells_per_row, case):
    table, workload = case
    m = table.m
    # SA ranges reaching past either end of the codes, and inverted ones.
    workload = workload + [AggregateQuery(q.qi, lo, hi) for q in workload
                           for lo, hi in ((-2, m + 1), (q.sa_lo - m, q.sa_hi), (q.sa_hi, q.sa_lo - 1))]
    release = bl.generalize(table, 4.0, seed=0)
    perturbed, model = perturbation_of(table)
    dist = bl.sa_distribution(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "CUBE_CELLS_PER_ROW", cells_per_row)
        reports = {
            "generalized": bl.workload_report_generalized(table, release, workload),
            "perturbed": bl.workload_report_perturbed(table, perturbed, model, workload),
            "baseline": bl.workload_report_baseline(table, dist, workload),
        }
    estimators = {
        "generalized": lambda q: reference_generalized(release, q),
        "perturbed": lambda q: bl.estimate_perturbed(perturbed, model, q),
        "baseline": lambda q: baseline_reference(table, dist, q),
    }
    prec = np.asarray([bl.exact_count(table, q) for q in workload], dtype=float)
    # A range past the codes means its part inside 0..m-1, as in exact_count.
    inside = [(i, AggregateQuery(q.qi, max(q.sa_lo, 0), min(q.sa_hi, m - 1)))
              for i, q in enumerate(workload) if max(q.sa_lo, 0) <= min(q.sa_hi, m - 1)]
    for name, report in reports.items():
        estimate = estimators[name]
        assert np.array_equal(report.prec, prec), name
        # A NaN bound gives the generalized estimator a NaN estimate.
        expected = np.asarray([estimate(q) for q in workload], dtype=float)
        assert np.array_equal(report.est, expected, equal_nan=True), name
        if name == "generalized":
            single = [bl.workload_report_generalized(table, release, [q]).est[0] for q in workload]
            assert np.array_equal(report.est, single, equal_nan=True)
        clipped = np.asarray([estimate(q) for _, q in inside], dtype=float)
        assert np.array_equal(report.est[[i for i, _ in inside]], clipped, equal_nan=True), name


def test_cube_budget_follows_distinct_values():
    # 79 ages x 2 sexes x 17 education levels x 50 SA values is about 134k
    # cells: inside 8 cells per row at 100k rows, outside at 10k.
    small = bl.generate_synthetic(10_000, 50, seed=0, sa_freqs=bl.census_like_profile(50))
    large = bl.generate_synthetic(100_000, 50, seed=0, sa_freqs=bl.census_like_profile(50))
    assert queries._cube_shape(small) is None
    assert queries._cube_shape(large) == (79, 2, 17, 50)
    assert [c.dtype for c in large.qi_codes] == [np.uint8] * 3


@pytest.mark.parametrize("qi_spec", ["census", "zip"])
def test_generalized_estimates_match_the_reference_across_chunks(qi_spec):
    zip_qi = (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),) if qi_spec == "zip" else ()
    table = bl.generate_synthetic(20_000, 50, qi_spec=bl.default_qi_spec() + zip_qi, seed=4,
                                  sa_freqs=bl.census_like_profile(50))
    release = bl.generalize(table, 4.0, seed=2)
    n = 3 * queries._QUERY_CHUNK + 5
    d = len(table.schema.qi_attributes)
    workload = [q for lam in range(1, d + 1) for q in bl.gen_workload(table, lam, 0.1, n, seed=lam)]
    # Predicates out of axis order, on one axis twice, and none at all.
    workload += [AggregateQuery(q.qi[::-1] + q.qi[:1], q.sa_lo, q.sa_hi) for q in workload[:n]]
    workload.append(AggregateQuery((), 0, table.m - 1))
    report = bl.workload_report_generalized(table, release, workload)
    expected = [reference_generalized(release, q) for q in workload]
    assert np.array_equal(report.est, expected)
    assert report.est[-1] == table.n_rows


def test_every_report_reads_one_box_per_query():
    # Repeating a predicate or reversing the predicates leaves the box as it
    # is, and with it every report's count and estimate, bit for bit.
    table = bl.generate_synthetic(20_000, 50, seed=1, sa_freqs=bl.census_like_profile(50))
    release = bl.generalize(table, 4.0, seed=1)
    perturbed, model = perturbation_of(table)
    dist = bl.sa_distribution(table)
    d = len(table.schema.qi_attributes)
    workload = [q for lam in range(1, d + 1) for q in bl.gen_workload(table, lam, 0.1, 20, seed=lam)]
    variants = {
        "repeated": [AggregateQuery(q.qi[:1] + q.qi, q.sa_lo, q.sa_hi) for q in workload],
        "reversed": [AggregateQuery(q.qi[::-1], q.sa_lo, q.sa_hi) for q in workload],
    }
    reports = {
        "generalized": lambda w: bl.workload_report_generalized(table, release, w),
        "perturbed": lambda w: bl.workload_report_perturbed(table, perturbed, model, w),
        "baseline": lambda w: bl.workload_report_baseline(table, dist, w),
    }
    for name, report in reports.items():
        original = report(workload)
        assert original.dropped < len(workload) / 2, name
        for variant, changed in variants.items():
            answer = report(changed)
            assert np.array_equal(answer.prec, original.prec), (name, variant)
            assert answer.est.tobytes() == original.est.tobytes(), (name, variant)


def test_distinct_extents_gather_back_the_class_extents(census_release_b4):
    release = census_release_b4
    for (lo, hi), (d_lo, d_hi, index) in zip(release.class_extents, release.distinct_extents):
        assert len(d_lo) == len(set(zip(lo.tolist(), hi.tolist()))) < len(lo)
        assert np.array_equal(d_lo[index], lo) and np.array_equal(d_hi[index], hi)


def test_distinct_extents_compare_bit_patterns():
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=-1, hi=1), bl.Attribute("s", "sa")))
    extents = [(-0.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (0.0, 0.5)]
    ecs = tuple(EquivalenceClass((ext,), np.array([1])) for ext in extents)
    release = Release(schema, bl.Distribution(("a",), (4,), 4), 1.0, 0, 16, ecs)
    ((lo, hi),), ((d_lo, d_hi, index),) = release.class_extents, release.distinct_extents
    assert len(d_lo) == 3 and index.tolist() == [0, 1, 0, 2]
    assert np.array_equal(np.signbit(d_lo[index]), np.signbit(lo)) and np.array_equal(d_hi[index], hi)


def test_a_release_without_classes_has_empty_class_arrays():
    empty = dataclasses.replace(one_ec_release((2, 4), [4, 6]), ecs=())
    assert [(lo.shape, hi.shape) for lo, hi in empty.class_extents] == [((0,), (0,))]
    assert [tuple(a.shape for a in axis) for axis in empty.distinct_extents] == [((0,), (0,), (0,))]
    assert empty.class_counts.shape == (0, 2)


def test_the_cube_is_built_once_per_table():
    table = bl.generate_synthetic(20_000, 20, seed=6, skew=0.5)
    release = bl.generalize(table, 4.0, seed=1)
    dist = bl.sa_distribution(table)
    model = bl.build_model(dist, 4.0)
    assert queries._cube_shape(table) is not None
    built = []
    original = bl.Table.prefix_cube.func
    counted = cached_property(lambda t: built.append(t) or original(t))
    counted.__set_name__(bl.Table, "prefix_cube")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bl.Table, "prefix_cube", counted)
        workload = bl.gen_workload(table, 2, 0.1, 40, seed=1)
        bl.workload_report_generalized(table, release, workload)
        # Perturbed after the table has its cube: `perturb` builds the new
        # table with dataclasses.replace, which must not carry the cube over.
        perturbed = bl.perturb(table, model, seed=2)
        for _ in range(2):
            bl.workload_report_generalized(table, release, workload)
            bl.workload_report_perturbed(table, perturbed, model, workload)
            bl.workload_report_baseline(table, dist, workload)
    assert [t is table for t in built] == [True, False] and built[1] is perturbed
    expected = [reference_histogram(perturbed, q) for q in workload]
    assert np.array_equal(queries._qi_histograms(perturbed, workload), expected)


# Five SA values with rows; the codes named are the empty ones, of 6 or 7.
@pytest.mark.parametrize("empty", [(0,), (3,), (5,), (2, 3), (0, 6)],
                         ids=["first", "middle", "last", "adjacent", "first-and-last"])
def test_row_path_leaves_empty_sa_codes_at_zero(tmp_path, empty):
    # A perturbed table loaded with its distribution's value order may hold
    # SA codes without rows. The row path sums each SA code's rows with
    # reduceat, which gives an element, not 0, for an empty segment.
    rng = np.random.default_rng(11)
    tree = bl.Hierarchy({"name": "any", "children": list(LEAVES)})
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
                               bl.Attribute("c", "qi", hierarchy=tree), bl.Attribute("s", "sa")))
    held = ["p", "q", "r", "s", "t"]
    rows = [{"x": float(rng.choice(NUMERIC_POOL)), "c": str(rng.choice(LEAVES)), "s": str(rng.choice(held))}
            for _ in range(300)]
    bl.save_table(bl.table_from_rows(schema, rows), tmp_path / "t.csv")
    held_in_order = iter(held)
    order = tuple(f"none{i}" if i in empty else next(held_in_order) for i in range(len(held) + len(empty)))
    table = _in_published_order(bl.load_table(tmp_path / "t.csv", schema), order, tmp_path / "t.csv")
    assert [i for i, n in enumerate(table.sa_counts()) if n == 0] == list(empty)
    workload = bl.gen_workload(table, 1, 0.3, 20, seed=1) + bl.gen_workload(table, 2, 0.3, 20, seed=2)
    # No predicate, an empty span, and a span that is the whole axis.
    workload += [AggregateQuery((), 0, table.m - 1), AggregateQuery(((0, 11.0, 12.0),), 0, 1),
                 AggregateQuery(((1, 0.0, 3.0),), 0, 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "CUBE_CELLS_PER_ROW", 0)
        hist = queries._qi_histograms(table, workload)
    assert "prefix_cube" not in vars(table)
    assert np.array_equal(hist, [reference_histogram(table, q) for q in workload])


def test_the_sa_ordered_codes_are_built_once_per_table():
    table = bl.generate_synthetic(5_000, 20, seed=6, skew=0.5)
    release = bl.generalize(table, 4.0, seed=1)
    dist = bl.sa_distribution(table)
    model = bl.build_model(dist, 4.0)
    built = []
    original = bl.Table.rows_by_sa.func
    counted = cached_property(lambda t: built.append(t) or original(t))
    counted.__set_name__(bl.Table, "rows_by_sa")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "CUBE_CELLS_PER_ROW", 0)
        mp.setattr(bl.Table, "rows_by_sa", counted)
        workload = bl.gen_workload(table, 2, 0.1, 40, seed=1)
        bl.workload_report_generalized(table, release, workload)
        # Perturbed after the table has its SA-ordered codes: `perturb`
        # builds the new table with dataclasses.replace, which must not
        # carry them over.
        perturbed = bl.perturb(table, model, seed=2)
        for _ in range(2):
            bl.workload_report_generalized(table, release, workload)
            bl.workload_report_perturbed(table, perturbed, model, workload)
            bl.workload_report_baseline(table, dist, workload)
        hist = queries._qi_histograms(perturbed, workload)
    assert [t is table for t in built] == [True, False] and built[1] is perturbed
    assert "prefix_cube" not in vars(table) and "prefix_cube" not in vars(perturbed)
    assert np.array_equal(hist, [reference_histogram(perturbed, q) for q in workload])
