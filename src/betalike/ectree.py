"""Class size determination by recursive halving of bucket allocations.

The root allocation takes every bucket whole. A node splits into two children
holding the floor and remainder halves of each bucket's count; the split is
kept only when both children are non-empty and eligible, i.e. every bucket's
share of the child stays at or below the frequency bound of the bucket's
rarest value. Leaves are emitted left-first, smallest eligible classes.
"""
from __future__ import annotations

import numpy as np

from .buckets import BucketPartition
from .likeness import Bound, LikenessError


def _bucket_bound(partition: BucketPartition) -> Bound:
    """Each bucket's cap: the bound of its rarest value."""
    return Bound(partition.dist, partition.beta).at([b.lo for b in partition.buckets])


def eligible(alloc, partition: BucketPartition) -> bool:
    """Does every bucket's share of this allocation respect its bound?"""
    counts = np.asarray(alloc, dtype=np.int64)
    if counts.shape != (len(partition.buckets),):
        raise LikenessError("allocation length must match the bucket count")
    size = int(counts.sum())
    if size <= 0:
        raise LikenessError("allocation is empty")
    return _bucket_bound(partition).admits(counts.tolist(), size)


def bi_split(partition: BucketPartition) -> list[np.ndarray]:
    """Leaf allocation vectors of the halving tree, in left-first order.

    Component-wise the leaves sum exactly to the bucket sizes, and each leaf
    passes the eligibility check. The root is its own fallback leaf, so the
    result is never empty.
    """
    bound = _bucket_bound(partition)
    root = np.asarray([b.size for b in partition.buckets], dtype=np.int64)
    leaves: list[np.ndarray] = []
    stack = [root]
    while stack:
        node = stack.pop()
        left = node // 2
        right = node - left
        ls, rs = int(left.sum()), int(right.sum())
        if ls >= 1 and rs >= 1 and bound.admits(left.tolist(), ls) and bound.admits(right.tolist(), rs):
            stack.append(right)
            stack.append(left)
        else:
            leaves.append(node)
    return leaves
