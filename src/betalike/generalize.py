"""Generalization pipeline: bucketize, allocate, draw curve-local classes.

For each leaf allocation the pipeline picks a random anchor tuple from the
bucket with the largest demand, then greedily pulls each bucket's quota of
records whose curve keys are nearest the anchor's. Buckets are consumed
destructively in leaf order; the allocation tree's conservation property
guarantees retrieval never starves.

A bucket is stored as runs of equal curve keys, so a nearest draw costs
Python work per run it touches, not per record; only the buckets that
supply anchors ever rebuild a per-record order (see `SortedBucket`).

The draws fill one array of member rows, class after class; once the
buckets are freed, `release.build_ec` builds every class from it at once.
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
    """Bucket contents sorted by (curve key, row), with removal.

    Rows are grouped into runs of equal keys. A nearest draw finds the
    anchor's insertion point among the runs and expands on both sides,
    taking the nearer side and breaking ties toward the lower key. It takes
    keys below the anchor from the top of a run (highest row first) and keys
    at or above it from the bottom (lowest row first), so each run's live
    rows stay one slice `[lo, hi)` of the sorted row array, and the
    nearer-side choice holds for a whole run: a step takes as many of the
    run's rows as the draw still needs. A linked list over the non-empty
    runs and "first live run >= i" pointers skip the empty ones.

    `peek_random` indexes the live records in the order that swap-removing
    each taken record from a list of all of them leaves behind. Draws only
    log what they took, one range of slots (positions in the sorted row
    array) per run step; a bucket builds that order and replays its log
    when it is peeked, so buckets that never supply an anchor pay nothing
    for it.
    """

    def __init__(self, keys: np.ndarray, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        order = np.lexsort((rows, keys))
        keys = keys[order]
        # A memoryview reads and slices rows faster than the array does.
        self._rows = memoryview(rows[order])
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = [0, *change.tolist()] if n else []
        n_runs = len(starts)
        self._size = n
        self._run_keys = keys[starts].tolist()
        self._starts = starts
        self._lo = list(starts)
        self._hi = starts[1:] + [n]
        # Doubly linked list over the non-empty runs. Its tail sentinel is
        # run index n_runs (also "none" for the ceil pointers); its head
        # sentinel is -1, which indexes the last entry of both lists.
        self._prv = list(range(-1, n_runs + 1))
        self._nxt = list(range(1, n_runs + 3))
        self._nxt[-1] = 0
        # "First live run >= i" pointers with path compression.
        self._ceil = list(range(n_runs + 1))
        # Slots taken since the live order was last brought up to date, as
        # (first, last) pairs of an ascending or descending slot range.
        self._log: list[int] = []
        self._alive: list[int] | None = None
        self._slot: list[int] | None = None

    def __len__(self) -> int:
        return self._size

    def _find_ceil(self, i: int) -> int:
        ceil = self._ceil
        root = i
        while ceil[root] != root:
            root = ceil[root]
        while ceil[i] != root:
            ceil[i], i = root, ceil[i]
        return root

    def _live_order(self) -> list[int]:
        """The live slots in swap-remove order, after replaying the log."""
        if self._alive is None:
            self._alive = list(range(len(self._rows)))
            self._slot = list(range(len(self._rows)))
        alive, slot, log = self._alive, self._slot, self._log
        pairs = iter(log)
        for first, last in zip(pairs, pairs):
            step = 1 if first <= last else -1
            i = first
            while True:
                j = slot[i]
                moved = alive.pop()
                if moved != i:
                    alive[j] = moved
                    slot[moved] = j
                if i == last:
                    break
                i += step
        del log[:]
        return alive

    def peek_random(self, rng: np.random.Generator) -> tuple[int, int]:
        """(row, key) of a uniformly random live record; nothing is removed."""
        alive = self._live_order()
        i = alive[int(rng.integers(len(alive)))]
        return self._rows[i], self._run_keys[bisect.bisect_right(self._starts, i) - 1]

    def draw_nearest(self, anchor_key: int, count: int) -> np.ndarray:
        """Remove and return the `count` rows with keys nearest the anchor's."""
        if count > self._size:
            raise DataError(f"cannot draw {count} of {self._size} remaining records")
        out = np.empty(count, dtype=np.int64)
        if count == 0:
            return out
        self._size -= count
        anchor_key = int(anchor_key)
        taken = memoryview(out)
        keys, rows, lo, hi, log = self._run_keys, self._rows, self._lo, self._hi, self._log
        prv, nxt, ceil = self._prv, self._nxt, self._ceil
        tail = len(keys)
        right = self._find_ceil(bisect.bisect_left(keys, anchor_key))
        left = prv[right]
        pos = 0
        while pos < count:
            if left != -1 and (right == tail or anchor_key - keys[left] <= keys[right] - anchor_key):
                # Take from the top of the run below the anchor.
                a, b = lo[left], hi[left]
                if b - a > count - pos:
                    a = hi[left] = b - (count - pos)
                else:
                    p, nx = prv[left], nxt[left]
                    nxt[p], prv[nx], ceil[left] = nx, p, left + 1
                    left = p
                if b - a == 1:
                    taken[pos] = rows[a]
                else:
                    taken[pos : pos + b - a] = rows[a:b][::-1]
                log.append(b - 1)
                log.append(a)
            else:
                # Take from the bottom of the run at or above it.
                a, b = lo[right], hi[right]
                if b - a > count - pos:
                    b = lo[right] = a + (count - pos)
                else:
                    p, nx = prv[right], nxt[right]
                    nxt[p], prv[nx], ceil[right] = nx, p, right + 1
                    right = nx
                if b - a == 1:
                    taken[pos] = rows[a]
                else:
                    taken[pos : pos + b - a] = rows[a:b]
                log.append(a)
                log.append(b - 1)
            pos += b - a
        return out


def generalize(table: Table, beta: float, seed: int = 0, curve_order: int = 16) -> Release:
    """Publish the table as equivalence classes honoring the beta budget.

    Deterministic for a fixed (table, beta, seed, curve_order).
    """
    dist = sa_distribution(table)
    partition = dp_partition(table, beta)
    leaves = bi_split(partition)
    keys = table_keys(table, curve_order)
    stores = [SortedBucket(keys[b.rows], b.rows) for b in partition.buckets]
    del keys, partition
    rng = np.random.default_rng(seed)
    members = np.empty(table.n_rows, dtype=np.int64)
    sizes = []
    end = 0
    for alloc in leaves:
        alloc = alloc.tolist()
        _, anchor_key = stores[alloc.index(max(alloc))].peek_random(rng)
        for store, a in zip(stores, alloc):
            if a > 0:
                members[end : end + a] = store.draw_nearest(anchor_key, a)
                end += a
        sizes.append(sum(alloc))
    assert all(len(s) == 0 for s in stores)
    # The stores' per-record lists go before the classes are built.
    del stores
    return Release(table.schema, dist, beta, seed, curve_order, build_ec(table, members, sizes))
