from __future__ import annotations

import math

import numpy as np
import pytest

import betalike as bl
from betalike.release import EquivalenceClass, NumericExtent, Release

from conftest import table1


def single_attr_schema():
    return bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))


def release_from_counts(dist, class_counts, beta=1.0, extents=None):
    ecs = []
    for i, counts in enumerate(class_counts):
        ext = extents[i] if extents else (NumericExtent(0, 10),)
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


def nb_release(table, groups, beta=1.0):
    """Build a release whose classes are the given row-index groups."""
    dist = bl.sa_distribution(table)
    ecs = tuple(bl.build_ec(table, np.asarray(g)) for g in groups)
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
