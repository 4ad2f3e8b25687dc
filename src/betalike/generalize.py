"""Generalization pipeline: bucketize, allocate, draw curve-local classes.

For each leaf allocation the pipeline picks a random anchor tuple from the
bucket with the largest demand, then greedily pulls each bucket's quota of
records whose curve keys are nearest the anchor's. Buckets are consumed
destructively in leaf order; the allocation tree's conservation property
guarantees retrieval never starves.
"""
from __future__ import annotations

import bisect

import numpy as np

from .buckets import dp_partition
from .data import DataError, Table, sa_distribution
from .ectree import bi_split
from .hilbert import table_keys
from .release import Release, build_ec


class SortedBucket:
    """Bucket contents sorted by curve key, with removal.

    Supports nearest-key draws (binary search for the anchor's insertion
    point, then two-sided expansion taking the nearer side, ties to the lower
    key) and uniform random draws. Equal keys keep original row order.
    """

    def __init__(self, keys: np.ndarray, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        order = np.lexsort((rows, keys))
        self._keys = keys[order].tolist()
        self._rows = rows[order].tolist()
        self._n = n
        self._head = n
        self._tail = n + 1
        # Doubly linked list over live slots, with head/tail sentinels.
        self._prv = [i - 1 for i in range(n)] + [self._head, n - 1]
        if n > 0:
            self._prv[0] = self._head
        self._nxt = [i + 1 for i in range(n)] + [0 if n > 0 else self._tail, self._tail]
        if n > 0:
            self._nxt[n - 1] = self._tail
        # "First live slot >= i" pointers with path compression; n means none.
        self._ceil = list(range(n + 1))
        self._alive = list(range(n))
        self._slot = list(range(n))

    def __len__(self) -> int:
        return len(self._alive)

    def _find_ceil(self, i: int) -> int:
        root = i
        while self._ceil[root] != root:
            root = self._ceil[root]
        while self._ceil[i] != root:
            self._ceil[i], i = root, self._ceil[i]
        return root

    def _take(self, i: int) -> int:
        p, nx = self._prv[i], self._nxt[i]
        self._nxt[p] = nx
        self._prv[nx] = p
        self._ceil[i] = i + 1
        j = self._slot[i]
        last = self._alive[-1]
        self._alive[j] = last
        self._slot[last] = j
        self._alive.pop()
        return self._rows[i]

    def peek_random(self, rng: np.random.Generator) -> tuple[int, int]:
        """(row, key) of a uniformly random live record; nothing is removed."""
        i = self._alive[int(rng.integers(len(self._alive)))]
        return self._rows[i], self._keys[i]

    def draw_nearest(self, anchor_key: int, count: int) -> np.ndarray:
        """Remove and return the `count` rows with keys nearest the anchor's."""
        if count > len(self._alive):
            raise DataError(f"cannot draw {count} of {len(self._alive)} remaining records")
        out = np.empty(count, dtype=np.int64)
        if count == 0:
            return out
        anchor_key = int(anchor_key)
        pos = bisect.bisect_left(self._keys, anchor_key)
        c = self._find_ceil(pos) if pos < self._n else self._n
        if c < self._n:
            right = c
            left = self._prv[c]
        else:
            right = self._tail
            left = self._prv[self._tail]
        for k in range(count):
            have_left = left != self._head
            have_right = right != self._tail
            if have_left and (
                not have_right or anchor_key - self._keys[left] <= self._keys[right] - anchor_key
            ):
                step = self._prv[left]
                out[k] = self._take(left)
                left = step
            else:
                step = self._nxt[right]
                out[k] = self._take(right)
                right = step
        return out

    def draw_random(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count > len(self._alive):
            raise DataError(f"cannot draw {count} of {len(self._alive)} remaining records")
        out = np.empty(count, dtype=np.int64)
        for k in range(count):
            i = self._alive[int(rng.integers(len(self._alive)))]
            out[k] = self._take(i)
        return out


def generalize(
    table: Table,
    beta: float,
    seed: int = 0,
    curve_order: int = 16,
    retrieval: str = "hilbert",
) -> Release:
    """Publish the table as equivalence classes honoring the beta budget.

    Deterministic for a fixed (table, beta, seed, curve_order). The `random`
    retrieval mode ignores curve locality and exists to measure how much the
    curve ordering buys in information quality.
    """
    if retrieval not in ("hilbert", "random"):
        raise DataError(f"unknown retrieval mode {retrieval!r}")
    dist = sa_distribution(table)
    partition = dp_partition(table, beta)
    leaves = bi_split(partition)
    keys = table_keys(table, curve_order)
    stores = [SortedBucket(keys[b.rows], b.rows) for b in partition.buckets]
    rng = np.random.default_rng(seed)
    ecs = []
    for alloc in leaves:
        member_chunks = []
        if retrieval == "hilbert":
            anchor_bucket = int(np.argmax(alloc))
            _, anchor_key = stores[anchor_bucket].peek_random(rng)
            for j, a in enumerate(alloc):
                if a > 0:
                    member_chunks.append(stores[j].draw_nearest(anchor_key, int(a)))
        else:
            for j, a in enumerate(alloc):
                if a > 0:
                    member_chunks.append(stores[j].draw_random(rng, int(a)))
        rows = np.concatenate(member_chunks)
        ecs.append(build_ec(table, rows))
    assert all(len(s) == 0 for s in stores)
    return Release(table.schema, dist, beta, seed, curve_order, tuple(ecs))
