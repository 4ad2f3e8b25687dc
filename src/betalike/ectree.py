"""Class size determination by recursive halving of bucket allocations.

The root allocation takes every bucket whole. A node splits into two children
holding the floor and remainder halves of each bucket's count; the split is
kept only when both children are non-empty and eligible, i.e. every bucket's
share of the child stays at or below the frequency bound of the bucket's
rarest value. Leaves are emitted left-first, smallest eligible classes.

Every node with the same counts roots the same subtree, so `bi_split`
memoizes the leaves by count vector: a 1M-row census table's tree has about
16k nodes but only a few dozen distinct ones.
"""
from __future__ import annotations

import numpy as np

from .buckets import BucketPartition
from .likeness import Bound


def bi_split(partition: BucketPartition) -> np.ndarray:
    """Leaf allocation vectors of the halving tree, in left-first order, as
    the rows of one (leaves, buckets) int64 array.

    Component-wise the leaves sum exactly to the bucket sizes, and each leaf
    passes the eligibility check. The root is its own fallback leaf, so the
    result is never empty. A node's subtree depends only on its counts, and
    the tree repeats a few distinct count vectors many times over, so each
    distinct node's leaves are computed once. Halving shrinks the largest
    count, which bounds the recursion depth by its bit length.
    """
    # Each bucket's cap: the bound of its rarest value.
    bound = Bound(partition.dist, partition.beta).at([b.lo for b in partition.buckets])
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def leaves_of(node: tuple[int, ...]) -> np.ndarray:
        leaves = memo.get(node)
        if leaves is None:
            left = tuple(c // 2 for c in node)
            right = tuple(c - h for c, h in zip(node, left))
            ls, rs = sum(left), sum(right)
            if ls >= 1 and rs >= 1 and bound.admits(left, ls) and bound.admits(right, rs):
                leaves = np.concatenate([leaves_of(left), leaves_of(right)])
            else:
                leaves = np.asarray([node], dtype=np.int64)
            memo[node] = leaves
        return leaves

    leaves = leaves_of(tuple(b.size for b in partition.buckets))
    # `leaves_of` refers to itself, so the memo would live on until the
    # cycle collector runs; its arrays go now.
    memo.clear()
    return leaves
