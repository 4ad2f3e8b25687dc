from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import betalike as bl
from betalike.likeness import Bound


def eligible(alloc, partition) -> bool:
    """Does every bucket's share of this allocation respect the bound of the
    bucket's rarest value? The check `bi_split` makes of each child."""
    counts = [int(c) for c in alloc]
    bound = Bound(partition.dist, partition.beta).at([b.lo for b in partition.buckets])
    return bound.admits(counts, sum(counts))


def test_eligibility_examples(example2):
    part = bl.dp_partition(example2, 2.0)
    assert eligible([3, 3, 4], part)
    assert not eligible([2, 2, 2], part)
    # The whole-table allocation is always eligible.
    assert eligible([b.size for b in part.buckets], part)


def test_eligibility_boundary_is_inclusive():
    # A bucket share exactly at its bound is still eligible, unlike the
    # strictly exclusive bucket-combination rule.
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))
    rows = (
        [{"x": 1, "s": "a"}]
        + [{"x": 2, "s": "b"}]
        + [{"x": 3, "s": "c"}] * 2
    )
    part = bl.dp_partition(bl.table_from_rows(schema, rows), 1.0)
    assert len(part.buckets) == 3
    # share 1/2 equals (1 + 1) * 1/4, the bound of the rarest value.
    assert eligible([1, 1, 0], part)


def test_example2_leaves(example2):
    part = bl.dp_partition(example2, 2.0)
    leaves = bl.bi_split(part)
    assert [leaf.tolist() for leaf in leaves] == [[1, 1, 2], [1, 2, 2], [3, 3, 4]]


def test_single_tuple_bucket_is_a_leaf():
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
        bl.Attribute("s", "sa"),
    ))
    rows = [{"x": 1, "s": "only"}]
    part = bl.dp_partition(bl.table_from_rows(schema, rows), 1.0)
    leaves = bl.bi_split(part)
    assert [leaf.tolist() for leaf in leaves] == [[1]]


def _random_partition(rng):
    m = int(rng.integers(1, 10))
    counts = sorted(int(c) for c in rng.integers(1, 200, size=m))
    names = tuple(f"v{i}" for i in range(m))
    dist = bl.Distribution(names, tuple(counts), sum(counts))
    beta = float(rng.uniform(0.3, 5.0))
    spans = bl.partition_spans(dist, beta)
    bounds = np.cumsum([0] + list(dist.counts))
    buckets = []
    for lo, hi in spans:
        rows = np.arange(bounds[lo], bounds[hi + 1])
        mass = sum(dist.counts[lo : hi + 1]) / dist.total
        buckets.append(bl.Bucket(lo, hi, rows, dist.freq(lo), mass))
    return bl.BucketPartition(tuple(buckets), dist, beta)


def test_random_partitions_conserve_and_stay_eligible():
    rng = np.random.default_rng(23)
    for _ in range(60):
        part = _random_partition(rng)
        leaves = bl.bi_split(part)
        total = np.sum(leaves, axis=0)
        assert total.tolist() == [b.size for b in part.buckets]
        for leaf in leaves:
            assert leaf.sum() >= 1
            assert eligible(leaf, part)


def test_near_proportionality():
    # Balanced halving keeps every node's count within 1 of the exact half,
    # so a leaf's bucket share drifts from the global share by at most
    # (1 + share * n_buckets) / size.
    rng = np.random.default_rng(31)
    for _ in range(40):
        part = _random_partition(rng)
        k = len(part.buckets)
        n = sum(b.size for b in part.buckets)
        shares = np.asarray([b.size / n for b in part.buckets])
        for leaf in bl.bi_split(part):
            size = leaf.sum()
            drift = np.abs(leaf / size - shares)
            assert (drift <= (1.0 + shares * k) / size + 1e-12).all()


def test_split_is_deterministic(example2):
    part = bl.dp_partition(example2, 2.0)
    a = [leaf.tolist() for leaf in bl.bi_split(part)]
    b = [leaf.tolist() for leaf in bl.bi_split(part)]
    assert a == b


def reference_bi_split(partition) -> list[list[int]]:
    """The halving tree walked node by node with an explicit stack, every
    node split afresh: the oracle of the memoized `bi_split`."""
    bound = Bound(partition.dist, partition.beta).at([b.lo for b in partition.buckets])
    leaves = []
    stack = [np.asarray([b.size for b in partition.buckets], dtype=np.int64)]
    while stack:
        node = stack.pop()
        left = node // 2
        right = node - left
        ls, rs = int(left.sum()), int(right.sum())
        if ls >= 1 and rs >= 1 and bound.admits(left.tolist(), ls) and bound.admits(right.tolist(), rs):
            stack.append(right)
            stack.append(left)
        else:
            leaves.append(node.tolist())
    return leaves


def test_random_partitions_match_the_stack_walk():
    rng = np.random.default_rng(23)
    for _ in range(60):
        part = _random_partition(rng)
        leaves = bl.bi_split(part)
        assert leaves.dtype == np.int64 and leaves.shape == (len(leaves), len(part.buckets))
        assert leaves.tolist() == reference_bi_split(part)


@given(st.lists(st.integers(1, 5_000), min_size=1, max_size=12), st.floats(0.2, 6.0))
@settings(max_examples=200, deadline=None)
def test_memoized_split_matches_the_stack_walk(counts, beta):
    counts = sorted(counts)
    dist = bl.Distribution(tuple(f"v{i}" for i in range(len(counts))), tuple(counts), sum(counts))
    bounds = np.cumsum([0, *counts])
    buckets = tuple(bl.Bucket(lo, hi, np.arange(bounds[lo], bounds[hi + 1]), dist.freq(lo),
                              (bounds[hi + 1] - bounds[lo]) / dist.total)
                    for lo, hi in bl.partition_spans(dist, beta))
    part = bl.BucketPartition(buckets, dist, beta)
    assert bl.bi_split(part).tolist() == reference_bi_split(part)
