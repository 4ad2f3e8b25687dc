from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betalike as bl
from betalike import audit
from betalike.data import CATEGORICAL, NUMERIC, QI, Attribute
from betalike.likeness import Bound
from betalike.release import EquivalenceClass, Release

from conftest import DISEASES, balanced_hierarchy, disease_table, table1, traced_peak


def single_attr_schema():
    return bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))


def release_from_counts(dist, class_counts, beta=1.0, extents=None):
    ecs = []
    for i, counts in enumerate(class_counts):
        ext = extents[i] if extents else ((0, 10),)
        ecs.append(EquivalenceClass(ext, np.asarray(counts, dtype=np.int64)))
    return Release(single_attr_schema(), dist, beta, 0, 16, tuple(ecs))


def test_whole_table_class_achieves_zero():
    dist = bl.Distribution(("a", "b"), (4, 6), 10)
    rel = release_from_counts(dist, [[4, 6]])
    assert bl.achieved_beta(rel) == 0.0


def test_three_diverse_split_achieves_one():
    t = table1()
    dist = bl.sa_distribution(t)
    rel = release_from_counts(dist, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    assert bl.achieved_beta(rel) == pytest.approx(1.0)


def test_certainty_is_unbounded():
    dist = bl.Distribution(("a", "b"), (5, 5), 10)
    rel = release_from_counts(dist, [[3, 0]])
    # q = 1 exceeds 0.5 * (1 - ln 0.5) ~ 0.8466: no finite budget.
    assert math.isinf(bl.achieved_beta(rel))


def test_cap_boundary_is_finite():
    # q at or below p * (1 - ln p) needs beta = (q - p) / p, not "unbounded".
    dist = bl.Distribution(("a", "b"), (25, 75), 100)
    cap = 0.25 * (1 - math.log(0.25))
    g = 60
    q_count = math.floor(cap * g)
    rel = release_from_counts(dist, [[q_count, g - q_count]])
    got = bl.achieved_beta(rel)
    assert math.isfinite(got)
    assert got == pytest.approx((q_count / g - 0.25) / 0.25)


def test_achieved_beta_consistency(example2):
    dist = bl.sa_distribution(example2)
    for seed in range(4):
        rel = bl.generalize(example2, 2.0, seed=seed)
        star = bl.achieved_beta(rel)
        assert 0 < star <= 2.0 + 1e-9
        for ec in rel.ecs:
            assert bl.check_enhanced(dist, ec.sa_counts, star + 1e-9)
        slightly_less = star * (1 - 1e-6)
        assert not all(
            bl.check_enhanced(dist, ec.sa_counts, slightly_less) for ec in rel.ecs
        )


def test_no_achieved_beta_without_classes_or_for_an_empty_class():
    dist = bl.Distribution(("a", "b"), (4, 6), 10)
    with pytest.raises(bl.DataError, match="^release has no classes$"):
        bl.achieved_beta(release_from_counts(dist, []))
    with pytest.raises(bl.LikenessError, match="^class is empty$"):
        bl.achieved_beta(release_from_counts(dist, [[4, 6], [0, 0]]))


def test_audit_lines_format(example2):
    rel = bl.generalize(example2, 2.0, seed=1)
    lines = bl.ec_audit_lines(rel)
    assert len(lines) == len(rel.ecs)
    assert all("PASS" in line for line in lines)
    assert all("worst_value=" in line for line in lines)


def test_audit_lines_flag_violations():
    dist = bl.Distribution(("a", "b"), (5, 5), 10)
    rel = release_from_counts(dist, [[3, 0]], beta=1.0)
    lines = bl.ec_audit_lines(rel)
    assert "FAIL" in lines[0] and "unbounded" in lines[0]


@st.composite
def dists_and_class_counts(draw):
    """A distribution and class counts; some classes put one value exactly
    on its p * (1 - ln p) cap (the nearest fraction with a denominator up to
    1e12, which divides to the cap's float), others one count past it."""
    m = draw(st.integers(1, 5))
    counts = sorted(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m)))
    dist = bl.Distribution(tuple(f"v{i}" for i in range(m)), tuple(counts), sum(counts))
    caps = Bound(dist, 1.0, cut=0.0).caps()
    classes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "on-cap", "past-cap"]))
        if kind == "free" or m == 1:
            classes.append(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m).filter(any)))
            continue
        i, j = draw(st.permutations(range(m)))[:2]
        cap = Fraction(float(caps[i])).limit_denominator(10**12)
        c, g = cap.numerator + (kind == "past-cap"), cap.denominator
        row = [0] * m
        row[i], row[j] = c, g - c
        classes.append(row)
    return dist, classes


def required_beta_per_class(dist, counts):
    """The per-class function that `audit._class_gains` vectorizes, kept as
    its oracle: the smallest beta under which the class passes the
    enhanced check."""
    counts = [int(c) for c in counts]
    g = sum(counts)
    # With every value on the logarithmic branch, beta itself is unused.
    if not Bound(dist, 1.0, cut=0.0).admits(counts, g):
        return math.inf
    worst = 0.0
    for n_i, c in zip(dist.counts, counts):
        p = n_i / dist.total
        q = c / g
        if q > p:
            worst = max(worst, (q - p) / p)
    return worst


@given(dists_and_class_counts())
@settings(max_examples=200, deadline=None)
def test_required_betas_match_the_per_class_oracle(case):
    dist, classes = case
    rel = release_from_counts(dist, classes)
    want = np.asarray([required_beta_per_class(dist, counts) for counts in classes])
    got = audit._class_gains(rel)[1]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert bl.achieved_beta(rel) == max(want.tolist())
    shown = [line.split("required_beta=")[1].split()[0] for line in bl.ec_audit_lines(rel)]
    assert shown == ["unbounded" if math.isinf(b) else f"{b:.6f}" for b in want.tolist()]


# At p = 14/37 numpy's log gives a cap one step below math.log's.
@pytest.mark.parametrize("counts", [(25, 75), (14, 23)])
def test_a_class_exactly_on_the_log_cap_is_finite(counts):
    dist = bl.Distribution(("a", "b"), counts, sum(counts))
    p = dist.freq(0)
    cap = Fraction(p * (1 - math.log(p))).limit_denominator(10**12)
    c, g = cap.numerator, cap.denominator
    assert c / g == p * (1 - math.log(p))
    assert bl.achieved_beta(release_from_counts(dist, [[c, g - c]])) == (c / g - p) / p
    assert math.isinf(bl.achieved_beta(release_from_counts(dist, [[c + 1, g - c - 1]])))


def nb_release(table, groups, beta=1.0):
    """Build a release whose classes are the given row-index groups."""
    dist = bl.sa_distribution(table)
    ecs = bl.build_ec(table, np.concatenate(groups).astype(np.int64), [len(g) for g in groups])
    return Release(table.schema, dist, beta, 0, 16, ecs)


def test_nb_single_class_all_ratios_one():
    t = table1()
    rel = nb_release(t, [list(range(6))])
    report = bl.nb_bound_audit(rel, t)
    assert report.violations == 0
    assert report.max_ratio == pytest.approx(np.ones(6))
    assert report.worst[3] == pytest.approx(1.0)


def test_nb_proportional_classes_predict_top_value():
    # Two classes, each with the global distribution: conditionals carry no
    # signal, so the classifier returns the most frequent value everywhere.
    schema = single_attr_schema()
    rows = []
    for x in (1.0, 9.0):
        rows += [{"x": x, "s": "rare"}] * 2 + [{"x": x, "s": "common"}] * 3
    t = bl.table_from_rows(schema, rows)
    rel = nb_release(t, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    report = bl.nb_bound_audit(rel, t)
    assert report.max_ratio == pytest.approx(np.ones(2))
    assert report.accuracy == pytest.approx(report.top_frequency)


def test_nb_bound_holds_on_generalized_output(example2):
    rel = bl.generalize(example2, 2.0, seed=3)
    report = bl.nb_bound_audit(rel, example2)
    assert report.violations == 0
    assert report.pairs > 0
    assert 0.0 <= report.accuracy <= 1.0
    assert len(report.lines()) == 3


def test_nb_row_count_mismatch(example2):
    rel = bl.generalize(example2, 2.0, seed=3)
    other = bl.generate_synthetic(30, 5, seed=1)
    with pytest.raises(bl.DataError, match="row count"):
        bl.nb_bound_audit(rel, other)


@pytest.mark.parametrize("counts", [
    [("headache", 3), ("epilepsy", 2), *DISEASES[2:]],
    # The same count per value, but the tied values first appear in another
    # order, so the table's SA codes differ from the release's.
    [DISEASES[0], DISEASES[3], DISEASES[2], DISEASES[1], *DISEASES[4:]],
], ids=["other-counts", "other-code-order"])
def test_nb_audit_rejects_a_table_that_is_not_the_source(example2, counts):
    rel = bl.generalize(example2, 2.0, seed=3)
    with pytest.raises(bl.DataError, match="^table is not the artifact's source: its SA values"):
        bl.nb_bound_audit(rel, disease_table(counts))


def test_audits_agree_with_the_exact_class_check():
    # The float 0.3 lies just below 3/10, so a class at q = 1.3 p exactly is
    # over its cap; a float comparison with slack would let it pass.
    rows = ([{"x": 1, "s": "a"}] * 10 + [{"x": 1, "s": "b"}] * 38 + [{"x": 1, "s": "c"}] * 52
            + [{"x": 9, "s": "b"}] * 12 + [{"x": 9, "s": "c"}] * 18)
    t = bl.table_from_rows(single_attr_schema(), rows)
    rel = nb_release(t, [range(100), range(100, 130)], beta=0.3)
    assert [bl.check_enhanced(rel.dist, ec.sa_counts, 0.3) for ec in rel.ecs] == [False, True]
    assert [line.endswith("FAIL") for line in bl.ec_audit_lines(rel)] == [True, False]
    report = bl.nb_bound_audit(rel, t)
    assert report.violations == 1
    assert report.worst[:3] == ("x", 1.0, "a")


def brute_force_nb_audit(release, table):
    """nb_bound_audit's fields from a per (distinct value, class) check of
    lo <= v <= hi, a per-pair exact bound check and a per-row prediction."""
    dist, m = release.dist, release.dist.m
    p = dist.freqs()
    n_i = np.asarray(dist.counts, dtype=float)
    bound = Bound(dist, release.beta)
    one_value = [bound.at([si]) for si in range(m)]
    bounds = bound.caps() / p
    worst, worst_bound = ("", 0.0, "", 0.0), float(bounds[0])
    max_ratio = [0.0] * m
    violations = pairs = 0
    log_scores = np.tile(np.log(p), (table.n_rows, 1))
    for k, attr in enumerate(table.schema.qi_attributes):
        col = table.qi_columns[k]
        values = np.unique(col)
        lo, hi = release.class_extents[k]
        # hits[v] adds the counts of each class whose extent holds v.
        covers = (lo[None, :] <= values[:, None]) & (values[:, None] <= hi[None, :])
        hits = covers.astype(np.int64) @ release.class_counts
        covered = hits.sum(axis=1)
        cond = hits / n_i[None, :]
        ratio = cond / (covered / dist.total)[:, None]
        for v, hit, size, row in zip(values.tolist(), hits.tolist(), covered.tolist(), ratio.tolist()):
            for si in range(m):
                pairs += 1
                violations += not one_value[si].admits([hit[si]], size)
                max_ratio[si] = max(max_ratio[si], row[si])
                if row[si] > worst[3]:
                    shown = attr.hierarchy.leaves[int(v)] if attr.kind == CATEGORICAL else float(v)
                    worst = (attr.name, shown, dist.values[si], row[si])
                    worst_bound = float(bounds[si])
        with np.errstate(divide="ignore"):
            log_scores += np.log(cond)[np.searchsorted(values, col)]
    # Ties go to the more frequent value, the higher code.
    predictions = [max(zip(row, range(m)))[1] for row in log_scores.tolist()]
    accuracy = sum(int(a == b) for a, b in zip(predictions, table.sa_codes.tolist())) / table.n_rows
    return {"bounds": bounds, "max_ratio": np.asarray(max_ratio), "worst": worst, "worst_bound": worst_bound,
            "violations": violations, "pairs": pairs, "accuracy": accuracy}


def _qi_attribute(k, kind):
    """A numeric axis on a coarse integer grid, or a categorical one."""
    if kind == NUMERIC:
        return Attribute(f"n{k}", QI, NUMERIC, lo=0, hi=6)
    leaves = [f"c{k}.{i}" for i in range(5)]
    return Attribute(f"c{k}", QI, CATEGORICAL, hierarchy=balanced_hierarchy(leaves, fanout=2))


def _random_partition_release(table, beta, data):
    """Classes from a random row partition through build_ec. Optionally class
    0 covers each whole domain and other classes get numeric extents that
    fall between grid points, so they cover no value of that axis."""
    n = table.n_rows
    perm = np.asarray(data.draw(st.permutations(range(n))))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=min(6, n - 1))))
    parts = [np.sort(rows) for rows in np.split(perm, cuts)]
    ecs = list(bl.build_ec(table, np.concatenate(parts), [len(rows) for rows in parts]))
    if data.draw(st.booleans()):
        whole = []
        for attr in table.schema.qi_attributes:
            if attr.kind == NUMERIC:
                whole.append((attr.lo, attr.hi))
            else:
                root = attr.hierarchy.root
                whole.append((root.leaf_lo, root.leaf_hi))
        ecs[0] = EquivalenceClass(tuple(whole), ecs[0].sa_counts)
        numeric = [k for k, a in enumerate(table.schema.qi_attributes) if a.kind == NUMERIC]
        for i in range(1, len(ecs)):
            if numeric and data.draw(st.booleans()):
                k = data.draw(st.sampled_from(numeric))
                g = data.draw(st.integers(0, 5))
                extents = list(ecs[i].extents)
                extents[k] = (g + 0.25, g + 0.5)
                ecs[i] = EquivalenceClass(tuple(extents), ecs[i].sa_counts)
    return Release(table.schema, bl.sa_distribution(table), beta, 0, 16, tuple(ecs))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_nb_audit_matches_brute_force(data):
    kinds = data.draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), min_size=1, max_size=3))
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(max(m, 2), 60))
    spec = tuple(_qi_attribute(k, kind) for k, kind in enumerate(kinds))
    table = bl.generate_synthetic(n, m, qi_spec=spec, skew=data.draw(st.sampled_from([0.0, 0.7, 1.5])),
                                  seed=data.draw(st.integers(0, 2**16)))
    beta = data.draw(st.sampled_from([0.3, 1.0, 2.0, 4.0]))
    if data.draw(st.booleans()):
        release = bl.generalize(table, beta, seed=data.draw(st.integers(0, 100)))
    else:
        release = _random_partition_release(table, beta, data)
    _assert_nb_audit_matches_brute_force(release, table)


def _assert_nb_audit_matches_brute_force(release, table, expected=None):
    """The audit against `brute_force_nb_audit`, or against its `expected`
    fields when the caller has computed them already."""
    report = bl.nb_bound_audit(release, table)
    expected = dict(expected or brute_force_nb_audit(release, table))
    assert np.array_equal(report.bounds, expected.pop("bounds"))
    assert np.array_equal(report.max_ratio, expected.pop("max_ratio"))
    assert {key: getattr(report, key) for key in expected} == expected
    return report


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_nb_audit_matches_brute_force_on_a_wide_axis(data):
    # 61 values on the first axis and at most 7 classes, so the class spans
    # cut it into segments of many values each.
    spec = (Attribute("w", QI, NUMERIC, lo=0, hi=60), _qi_attribute(1, CATEGORICAL))[:data.draw(st.integers(1, 2))]
    m = data.draw(st.integers(2, 5))
    table = bl.generate_synthetic(data.draw(st.integers(20, 150)), m, qi_spec=spec,
                                  skew=data.draw(st.sampled_from([0.0, 1.5])), seed=data.draw(st.integers(0, 2**16)))
    release = _random_partition_release(table, data.draw(st.sampled_from([0.3, 2.0])), data)
    _assert_nb_audit_matches_brute_force(release, table)


def _shared_ends_release(table):
    """Twelve classes: ten start their first-axis span at 10, five of them
    end it at 40 and five at 50, and all cover the whole second axis."""
    groups = np.array_split(np.random.default_rng(5).permutation(table.n_rows), 12)
    release = nb_release(table, [np.sort(g) for g in groups])
    root = table.schema.qi_attributes[1].hierarchy.root
    ecs = [EquivalenceClass(((10.0, 40.0 if i < 5 else 50.0) if i < 10 else ec.extents[0],
                             (root.leaf_lo, root.leaf_hi)), ec.sa_counts)
           for i, ec in enumerate(release.ecs)]
    return Release(release.schema, release.dist, release.beta, 0, 16, tuple(ecs))


@pytest.mark.parametrize("m, make_release", [
    (4, _shared_ends_release),
    (5, lambda table: nb_release(table, [np.arange(table.n_rows)])),
    (1, lambda table: bl.generalize(table, 1.0, seed=7)),
    (1, lambda table: nb_release(table, np.array_split(np.arange(table.n_rows), 4))),
], ids=["shared-span-ends", "single-class", "one-sa-value", "one-sa-value-partition"])
def test_nb_audit_matches_brute_force_where_span_ends_repeat(m, make_release):
    # Classes whose spans share a first segment or an end put their counts
    # on one cell of the hit deltas; and the edge cases of one class and of
    # one SA value.
    spec = (Attribute("w", QI, NUMERIC, lo=0, hi=60), _qi_attribute(1, CATEGORICAL))
    table = bl.generate_synthetic(240, m, qi_spec=spec, skew=0.7, seed=m)
    _assert_nb_audit_matches_brute_force(make_release(table), table)


def test_nb_audit_counts_a_leaky_segment_once_per_value():
    # x in 0..29 holds only "a" and x in 30..60 only "b" and "c": the class
    # of the low half puts "a" past its bound at each of its 30 values.
    schema = bl.DatasetSchema((Attribute("x", QI, NUMERIC, lo=0, hi=60), Attribute("s", "sa")))
    rows = ([{"x": x, "s": "a"} for x in range(30)]
            + [{"x": x, "s": "bc"[x % 2]} for x in range(30, 61)] * 2)
    table = bl.table_from_rows(schema, rows)
    release = nb_release(table, [np.arange(30), np.arange(30, len(rows))], beta=1.0)
    report = _assert_nb_audit_matches_brute_force(release, table)
    assert report.violations == 30 and report.pairs == 61 * 3
    assert report.worst[:3] == ("x", 0.0, "a")


def test_nb_audit_memory_stays_with_distinct_values_and_classes():
    # 20k rows over about 15.7k distinct zips and 1.4k classes: a
    # values x classes coverage matrix and its products need about 200 MB.
    spec = (Attribute("zip", QI, NUMERIC, lo=0, hi=99999), Attribute("age", QI, NUMERIC, lo=16, hi=94))
    table = bl.generate_synthetic(20_000, 10, qi_spec=spec, skew=0.5, seed=1)
    release = bl.generalize(table, 4.0, seed=1)
    assert traced_peak(bl.nb_bound_audit, release, table) < 40 * 2**20


def test_nb_audit_memory_stays_with_distinct_tuples(census_table, census_release_b4):
    # 100k rows over at most 79 x 2 x 17 distinct QI tuples, m = 50: scores
    # per row (rows x m float64) would need about 80 MB.
    assert traced_peak(bl.nb_bound_audit, census_release_b4, census_table) < 16 * 2**20


def zip_release(n_rows):
    """(release, table): the default QI plus a zip code, m = 50, at beta 4,
    with the table's distinct tuples already found."""
    spec = bl.default_qi_spec() + (Attribute("zip", QI, NUMERIC, lo=0, hi=99999),)
    table = bl.generate_synthetic(n_rows, 50, qi_spec=spec, seed=1, sa_freqs=bl.census_like_profile(50))
    table.qi_tuples
    return bl.generalize(table, 4.0, seed=1), table


def test_nb_audit_memory_on_a_zip_table():
    # Default QI plus a zip code: 20k rows over about 18k distinct zips and
    # nearly as many distinct tuples, m = 50. Holding steps, hits,
    # conditionals, ratios and their log of the zip axis at once peaked at
    # 50.3 MB; the audit keeps one (segments x m) array per axis (175
    # segments of the zip axis here) and one block of tuples' scores.
    assert traced_peak(bl.nb_bound_audit, *zip_release(20_000)) < 25 * 2**20


def test_nb_audit_memory_on_a_100k_zip_table():
    # 100k rows and nearly as many distinct tuples: (tuples x m) float64
    # scores alone take about 38 MB (a 42.7 MB peak). Scored a block at a
    # time the audit peaks at about 7 MB.
    assert traced_peak(bl.nb_bound_audit, *zip_release(100_000)) < 12 * 2**20


def _report_fields(report):
    return (report.beta, report.bounds.tobytes(), report.max_ratio.tobytes(), report.worst, report.worst_bound,
            report.violations, report.pairs, report.accuracy, report.top_frequency, report.lines())


@pytest.mark.parametrize("on_zip", [True, False], ids=["zip-20k", "census-100k"])
def test_nb_audit_is_the_same_at_every_score_block(on_zip, census_release_b4, census_table, monkeypatch):
    # Blocks of one tuple, of a few, and one block that ends just before,
    # at or past the last tuple: every report equals the default one.
    release, table = zip_release(20_000) if on_zip else (census_release_b4, census_table)
    expected = brute_force_nb_audit(release, table)
    default = _report_fields(_assert_nb_audit_matches_brute_force(release, table, expected))
    n_tuples = len(table.qi_tuples[0])
    for chunk in (1, 7, n_tuples - 1, n_tuples, n_tuples + 1):
        monkeypatch.setattr(audit, "SCORE_CHUNK", chunk)
        report = _assert_nb_audit_matches_brute_force(release, table, expected)
        assert _report_fields(report) == default, chunk
