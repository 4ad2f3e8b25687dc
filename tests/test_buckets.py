from __future__ import annotations

import numpy as np
import pytest

import betalike as bl
from betalike.likeness import Distribution

from conftest import brute_force_min_buckets, combinable


def dist(counts):
    counts = tuple(sorted(counts))
    return Distribution(tuple(f"v{i}" for i in range(len(counts))), counts, sum(counts))


EX2 = dist([2, 3, 3, 3, 4, 4])


def test_combinable_example_arithmetic():
    assert combinable(EX2, 0, 1, 2.0)          # 5/19 < f(2/19)
    assert not combinable(EX2, 0, 2, 2.0)      # 8/19 > f(2/19)
    assert combinable(EX2, 2, 3, 2.0)
    for i in range(6):
        assert combinable(EX2, i, i, 2.0)      # singleton runs always fit


def test_example2_partition(example2):
    part = bl.dp_partition(example2, 2.0)
    d = part.dist
    names = [set(b.value_names(d)) for b in part.buckets]
    assert names == [
        {"headache", "epilepsy"},
        {"brain tumors", "anemia"},
        {"angina", "heart murmur"},
    ]
    # Buckets carry their tuples and exactly partition the table.
    rows = np.sort(np.concatenate([b.rows for b in part.buckets]))
    assert (rows == np.arange(example2.n_rows)).all()
    assert [b.size for b in part.buckets] == [5, 6, 8]


def test_single_value_domain_single_bucket():
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))
    rows = [{"x": i % 10, "s": "only"} for i in range(7)]
    part = bl.dp_partition(bl.table_from_rows(schema, rows), 1.0)
    assert len(part.buckets) == 1
    assert part.buckets[0].size == 7


def test_dp_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(60):
        m = int(rng.integers(2, 13))
        counts = sorted(int(c) for c in rng.integers(1, 50, size=m))
        d = dist(counts)
        for beta in (0.5, 1.0, 2.0, 4.0):
            spans = bl.partition_spans(d, beta)
            assert len(spans) == brute_force_min_buckets(d, beta)


def test_partition_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 15))
        d = dist([int(c) for c in rng.integers(1, 60, size=m)])
        beta = float(rng.uniform(0.2, 5.0))
        spans = bl.partition_spans(d, beta)
        # Contiguous, exhaustive, in order.
        assert spans[0][0] == 0 and spans[-1][1] == m - 1
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 == a1 + 1
        # Every multi-value run respects the strict mass bound.
        for lo, hi in spans:
            if hi > lo:
                mass = sum(d.counts[lo : hi + 1]) / d.total
                assert mass < bl.frequency_bound(d.freq(lo), beta)


def test_combinable_boundary_is_exclusive():
    # Run mass exactly equal to the bound does not combine: with counts
    # (1,1,2) at beta=1 the first pair has mass 1/2 = (1+1) * 1/4 exactly.
    d = dist([1, 1, 2])
    assert not combinable(d, 0, 1, 1.0)
    assert bl.partition_spans(d, 1.0) == [(0, 0), (1, 1), (2, 2)]


def test_tie_break_keeps_smallest_final_bucket():
    # Uniform values at beta=2: runs of at most two fit, so both {1,2}{3} and
    # {1}{2,3} reach the minimum; updates happen only on strict improvement,
    # which leaves the final bucket as small as possible.
    d = dist([5, 5, 5])
    assert bl.partition_spans(d, 2.0) == [(0, 1), (2, 2)]


def test_beta_must_be_positive():
    d = dist([1, 2, 3])
    with pytest.raises(bl.LikenessError, match="beta"):
        bl.partition_spans(d, 0.0)
    with pytest.raises(bl.LikenessError, match="beta"):
        bl.partition_spans(d, -1.0)


def test_bucket_count_monotone_in_beta():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(2, 12))
        d = dist([int(c) for c in rng.integers(1, 40, size=m)])
        counts = [len(bl.partition_spans(d, b)) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(x >= y for x, y in zip(counts, counts[1:]))


def reference_bucket_rows(table, spans) -> list[list[int]]:
    """Each bucket's rows, ascending, cut from one stable argsort of the SA
    codes: the grouping that `dp_partition` replaced, kept as its oracle."""
    order = np.argsort(table.sa_codes, kind="stable")
    bounds = np.cumsum([0, *table.sa_counts()])
    return [np.sort(order[bounds[lo] : bounds[hi + 1]]).tolist() for lo, hi in spans]


# The last two: a 1-row table, and a beta so large that its one bucket takes
# every row; past one SA value a bucket's mass of 1 exceeds every cap, so only
# m = 1 gives a single bucket.
@pytest.mark.parametrize("m, beta, n", [
    (1, 1.0, 4_000), (6, 0.5, 4_000), (50, 4.0, 4_000), (300, 0.3, 4_000), (1, 1.0, 1), (1, 1e6, 4_000),
], ids=["1-1.0", "6-0.5", "50-4.0", "300-0.3", "one-row", "one-bucket-of-every-row"])
def test_bucket_rows_match_the_sorted_grouping(m, beta, n):
    # m = 300 gives more buckets than a uint8 bucket index can hold.
    table = bl.generate_synthetic(n, m, skew=1.1, seed=m)
    part = bl.dp_partition(table, beta)
    spans = [(b.lo, b.hi) for b in part.buckets]
    assert [b.rows.tolist() for b in part.buckets] == reference_bucket_rows(table, spans)
    assert all(b.rows.dtype == np.int64 for b in part.buckets)
    if m == 300:
        assert len(part.buckets) > 256
    if m == 1:
        assert [b.size for b in part.buckets] == [n]
