from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betalike as bl
from betalike.likeness import Bound, Distribution, one_plus_beta


def dist(counts, names=None):
    counts = tuple(sorted(counts))
    names = names or tuple(f"v{i}" for i in range(len(counts)))
    return Distribution(tuple(names), counts, sum(counts))


def class_counts(d: Distribution, sa_values) -> np.ndarray:
    """Per-value counts of one class from its SA values, aligned with `d`."""
    counts = np.zeros(d.m, dtype=np.int64)
    for v in sa_values:
        counts[d.values.index(v)] += 1
    return counts


def test_frequency_bound_spot_values():
    assert bl.frequency_bound(2 / 19, 2.0) == pytest.approx(0.3158, abs=5e-4)
    assert bl.frequency_bound(3 / 19, 2.0) == pytest.approx(0.4493, abs=5e-4)
    assert bl.frequency_bound(4 / 19, 2.0) == pytest.approx(0.5386, abs=5e-4)
    assert bl.frequency_bound(0.048402, 1.0) == 0.096804
    assert 0.199 <= bl.frequency_bound(0.05, 4.0) <= 0.200
    assert bl.frequency_bound(1.0, 3.0) == 1.0


def test_frequency_bound_domain():
    with pytest.raises(bl.LikenessError):
        bl.frequency_bound(0.0, 1.0)
    with pytest.raises(bl.LikenessError):
        bl.frequency_bound(1.1, 1.0)
    with pytest.raises(bl.LikenessError):
        bl.frequency_bound(0.5, 0.0)


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.floats(0.05, 8.0))
def test_frequency_bound_monotone_and_above_p(p1, p2, beta):
    lo, hi = sorted((p1, p2))
    f_lo, f_hi = bl.frequency_bound(lo, beta), bl.frequency_bound(hi, beta)
    if lo < hi:
        assert f_lo < f_hi
    assert f_lo >= lo and f_hi >= hi


@given(st.floats(0.05, 8.0))
def test_frequency_bound_branches_agree_at_cut(beta):
    cut = math.exp(-beta)
    assert abs(cut * (1 + beta) - cut * (1 - math.log(cut))) < 1e-12


def test_check_basic_examples():
    d = dist([1, 1], names=("hiv", "flu"))
    assert bl.check_basic(d, [1, 1], beta=1.0)

    skewed = Distribution(("hiv", "flu"), (1, 99), 100)
    assert not bl.check_basic(skewed, [11, 89], beta=1.0)
    assert bl.check_basic(skewed, [11, 89], beta=10.0)


def test_check_basic_three_diverse_split():
    # One class of the 3-way split of the six-patient table: q = 1/3 for
    # three values against p = 1/6 everywhere.
    d = dist([1] * 6)
    counts = [1, 1, 1, 0, 0, 0]
    assert bl.check_basic(d, counts, beta=1.0)
    assert not bl.check_basic(d, counts, beta=0.5)


def test_check_enhanced_worst_case_leaf(example2):
    # Allocation [1, 1, 2] in the worst composition: every draw lands on the
    # rarest value of its bucket.
    d = bl.sa_distribution(example2)
    counts = class_counts(d, ["headache", "brain tumors", "angina", "angina"])
    assert bl.check_enhanced(d, counts, beta=2.0)


def test_check_enhanced_rejects_certainty():
    d = dist([5, 5])
    for beta in (0.5, 2.0, 50.0):
        assert not bl.check_enhanced(d, [4, 0], beta=beta)


def test_distribution_and_class_counts_are_checked():
    with pytest.raises(bl.LikenessError, match="^values and counts must align and be non-empty$"):
        Distribution(("a", "b"), (1,), 1)
    with pytest.raises(bl.LikenessError, match="^every value must have a positive count$"):
        Distribution(("a", "b"), (0, 2), 2)
    d = dist([2, 3, 5])
    with pytest.raises(bl.LikenessError, match="^class counts must align with the 3 SA values$"):
        bl.check_enhanced(d, [2, 3], beta=1.0)
    with pytest.raises(bl.LikenessError, match="^class counts must be nonnegative$"):
        bl.check_enhanced(d, [2, -1, 5], beta=1.0)


def test_check_enhanced_identity_distribution():
    d = dist([2, 3, 5])
    assert bl.check_enhanced(d, [2, 3, 5], beta=0.001)


def test_empty_class_rejected():
    d = dist([1, 2])
    with pytest.raises(bl.LikenessError, match="empty"):
        bl.check_enhanced(d, [0, 0], beta=1.0)


@st.composite
def dist_and_class(draw):
    m = draw(st.integers(1, 6))
    base = draw(st.lists(st.integers(1, 40), min_size=m, max_size=m))
    counts = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))
    if sum(counts) == 0:
        counts[draw(st.integers(0, m - 1))] = 1
    return dist(base), np.asarray(sorted(zip(sorted(base), counts)))[:, 1]


@given(dist_and_class(), st.floats(0.1, 6.0))
@settings(max_examples=200)
def test_enhanced_implies_basic(dc, beta):
    d, counts = dc
    if bl.check_enhanced(d, counts, beta):
        assert bl.check_basic(d, counts, beta)


@given(
    st.integers(1, 50), st.integers(1, 50),     # class sizes
    st.integers(0, 50), st.integers(0, 50),     # value counts inside
    st.integers(1, 1000), st.integers(1, 1000), # global count / rest
)
@settings(max_examples=300)
def test_merge_monotonicity(g1, g2, n1, n2, n_global, n_rest):
    n1, n2 = min(n1, g1), min(n2, g2)
    p = Fraction(n_global, n_global + n_rest)
    q1, q2 = Fraction(n1, g1), Fraction(n2, g2)
    q3 = Fraction(n1 + n2, g1 + g2)
    # The merged class's frequency never exceeds the worse part, exactly.
    assert q3 <= max(q1, q2)
    d = lambda q: (q - p) / p
    assert d(q3) <= max(d(q1), d(q2))
    # Float path agrees up to roundoff.
    f = lambda q: (float(q) - float(p)) / float(p)
    assert f(q3) <= max(f(q1), f(q2)) + 1e-12


def test_boundary_class_does_not_flip():
    # q exactly equal to (1 + beta) * p passes the non-strict check even when
    # the float products disagree in the last bit: compared as integers.
    d = Distribution(("a", "b", "c"), (1, 2, 7), 10)
    # q_a = 2/10 = (1 + 1) * 1/10 exactly.
    assert bl.check_enhanced(d, [2, 3, 5], beta=1.0)
    assert bl.check_basic(d, [2, 3, 5], beta=1.0)
    # One more row of the boundary value breaks it.
    assert not bl.check_enhanced(d, [3, 3, 4], beta=1.0)


def test_one_plus_beta_is_exact():
    num, den = one_plus_beta(0.5)
    assert Fraction(num, den) == Fraction(3, 2)
    num, den = one_plus_beta(2.0)
    assert (num, den) == (3, 1)


# Bound against an oracle: exact fractions on the linear branch, the float
# cap p * (1 - ln p) on the logarithmic one.
BETAS = st.sampled_from([0.3, 1 / 3, 0.1, 0.5, 1.0, 2.0, 4.0]) | st.floats(0.01, 8.0)


def oracle_admits(d, beta, cut, counts, size, strict):
    cut = math.exp(-beta) if cut is None else cut
    for n_i, c in zip(d.counts, counts):
        if c == 0:
            continue
        p = n_i / d.total
        if p <= cut:
            q, cap = Fraction(c, size), (1 + Fraction(beta)) * Fraction(n_i, d.total)
        else:
            q, cap = c / size, p * (1.0 - math.log(p))
        if q > cap or strict and q == cap:
            return False
    return True


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=8), BETAS,
    st.sampled_from([None, 1.0, 0.0]), st.booleans(), st.data(),
)
@settings(max_examples=300)
def test_bound_matches_fraction_oracle(base, beta, cut, strict, data):
    # cut None: the enhanced model; 1.0: basic (all linear); 0.0: the limit
    # as beta grows (all logarithmic).
    d = dist(base)
    size = data.draw(st.integers(1, 10**7))
    counts = data.draw(st.lists(st.integers(0, size), min_size=d.m, max_size=d.m))
    expected = oracle_admits(d, beta, cut, counts, size, strict)
    assert Bound(d, beta, cut).admits(counts, size, strict) == expected


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8), BETAS)
@settings(max_examples=200)
def test_linear_cap_admits_classes_and_rejects_bucket_runs(base, beta):
    # c / g exactly (1 + beta) * p: (c, g) may need far more than 64 bits
    # when beta is not dyadic.
    d = dist(base)
    bound = Bound(d, beta)
    num, den = one_plus_beta(beta)
    for i, n_i in enumerate(d.counts):
        if n_i / d.total > math.exp(-beta):
            continue
        cap = Fraction(num * n_i, den * d.total)
        one = bound.at([i])
        assert one.admits([cap.numerator], cap.denominator)
        assert not one.admits([cap.numerator], cap.denominator, strict=True)
        assert not one.admits([cap.numerator + 1], cap.denominator)
        # Scaled up to a shared size, next to another value's count.
        pair = bound.at([i, i])
        assert pair.admits([2 * cap.numerator, 0], 2 * cap.denominator)
        assert not pair.admits([1, 2 * cap.numerator + 1], 2 * cap.denominator)


def test_bound_caps_are_the_frequency_bound():
    d = dist([3, 5, 40, 200])
    for beta in (0.3, 1.0, 4.0):
        expected = [bl.frequency_bound(p, beta) for p in d.freqs()]
        assert Bound(d, beta).caps() == pytest.approx(expected, rel=1e-15)
