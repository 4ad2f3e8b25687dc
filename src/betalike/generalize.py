"""Generalization pipeline: bucketize, allocate, draw curve-local classes.

For each leaf allocation the pipeline picks a random anchor tuple from the
bucket with the largest demand, then greedily pulls each bucket's quota of
records whose curve keys are nearest the anchor's. Buckets are consumed
destructively in leaf order; the allocation tree's conservation property
guarantees retrieval never starves.

The leaf matrix fixes each class's anchor bucket and how many records that
bucket holds when it is peeked, so every anchor position comes from one
`rng.integers` call over those bounds. Each bucket's draws wait in a queue
and go to it as one batch when it is next peeked, or after the last class:
the order of draws within a bucket, and so every member row, is as if each
class drew in turn.

A bucket is stored as runs of equal curve keys, so a nearest draw costs
Python work per run it touches, not per record, and it only logs the slot
ranges it took; only the buckets that supply anchors ever rebuild a
per-record order (see `SortedBucket`).

Once every class is drawn, each bucket's log is expanded into rows in one
pass and scattered into one array of member rows, class after class: class
k's share of bucket b is the next `leaves[k, b]` of b's draws.
`release.build_ec` then builds every class from it at once.
"""
from __future__ import annotations

import array
import bisect
from collections.abc import Sequence

import numpy as np

from .buckets import dp_partition
from .data import DataError, Table
from .ectree import bi_split
from .hilbert import table_keys
from .release import Release, build_ec


class SortedBucket:
    """Bucket contents sorted by (curve key, row), with removal.

    Built from the table's distinct curve keys, ascending, and the codes of
    the bucket's rows into them (`hilbert.table_keys`), with the rows in
    ascending order. A stable sort of the codes then gives the (key, row)
    order; numpy sorts codes of 16 bits or fewer by radix.

    Rows are grouped into runs of equal keys. A nearest draw finds the
    anchor's insertion point among the runs and expands on both sides,
    taking the nearer side and breaking ties toward the lower key. It takes
    keys below the anchor from the top of a run (highest row first) and keys
    at or above it from the bottom (lowest row first), so each run's live
    rows stay one slice `[lo, hi)` of the sorted row array, and the
    nearer-side choice holds for a whole run: a step takes as many of the
    run's rows as the draw still needs. A linked list over the non-empty
    runs and "first live run >= i" pointers skip the empty ones.

    A draw only logs what it took, one range of slots (positions in the
    sorted row array) per run step; `taken` expands the log into rows once
    the draws are done. `peek(i)` indexes the live records in the order
    that swap-removing each taken record from a list of all of them leaves
    behind. A bucket builds that order and replays the log from where it
    last stopped when it is peeked, so buckets that never supply an anchor
    pay nothing for it.

    `draw_nearest` takes a batch of (anchor key, count) draws and runs them
    in one loop, so a batch costs one method call.
    """

    def __init__(self, keys: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        self._rows = np.asarray(rows, dtype=np.int64)[order]
        n = len(order)
        change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        starts = [0, *change.tolist()] if n else []
        n_runs = len(starts)
        self._size = n
        self._run_keys = keys[codes[starts]].tolist()
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
        # Every slot taken, as (first, last) pairs of an ascending or
        # descending slot range, and how much of it the live order has seen.
        self._log = array.array("q")
        self._replayed = 0
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
        alive, slot = self._alive, self._slot
        pairs = iter(self._log[self._replayed :])
        self._replayed = len(self._log)
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
        return alive

    def peek(self, i: int) -> tuple[int, int]:
        """(row, key) of live record `i` in swap-remove order, for `i` below
        `len(self)`; nothing is removed."""
        i = self._live_order()[i]
        return int(self._rows[i]), self._run_keys[bisect.bisect_right(self._starts, i) - 1]

    def draw_nearest(self, anchor_keys: Sequence[int], counts: Sequence[int]) -> None:
        """For each anchor in turn, remove the `count` rows with keys nearest
        it; `taken` returns them. A bad batch raises before any draw."""
        if len(anchor_keys) != len(counts):
            raise ValueError(f"{len(anchor_keys)} anchors for {len(counts)} counts")
        total, least = sum(counts), min(counts, default=0)
        if least < 0 or total > self._size:
            raise DataError(f"cannot draw {least if least < 0 else total} of {self._size} remaining records")
        self._size -= total
        keys, lo, hi, append = self._run_keys, self._lo, self._hi, self._log.append
        prv, nxt, ceil = self._prv, self._nxt, self._ceil
        tail = len(keys)
        for anchor_key, count in zip(anchor_keys, counts):
            if not count:
                continue
            anchor_key = int(anchor_key)
            right = bisect.bisect_left(keys, anchor_key)
            if ceil[right] != right:
                right = self._find_ceil(right)
            left = prv[right]
            while count:
                if left != -1 and (right == tail or anchor_key - keys[left] <= keys[right] - anchor_key):
                    # Take from the top of the run below the anchor.
                    a, b = lo[left], hi[left]
                    if b - a > count:
                        a = hi[left] = b - count
                    else:
                        p, nx = prv[left], nxt[left]
                        nxt[p], prv[nx], ceil[left] = nx, p, left + 1
                        left = p
                    append(b - 1)
                    append(a)
                else:
                    # Take from the bottom of the run at or above it.
                    a, b = lo[right], hi[right]
                    if b - a > count:
                        b = lo[right] = a + count
                    else:
                        p, nx = prv[right], nxt[right]
                        nxt[p], prv[nx], ceil[right] = nx, p, right + 1
                        right = nx
                    append(a)
                    append(b - 1)
                count -= b - a

    def taken(self) -> np.ndarray:
        """The rows drawn so far, in draw order."""
        pairs = np.frombuffer(self._log, dtype=np.int64).reshape(-1, 2)
        if not len(pairs):
            return np.empty(0, dtype=np.int64)
        first, last = pairs[:, 0], pairs[:, 1]
        lengths = np.abs(last - first) + 1
        # Slot steps: +-1 inside a range, and a jump from the previous
        # range's last slot to the next range's first; their running sum
        # walks every slot in log order.
        steps = np.repeat(np.where(last < first, -1, 1), lengths)
        heads = np.cumsum(lengths[:-1])
        steps[0] = first[0]
        steps[heads] = first[1:] - last[:-1]
        return self._rows[np.cumsum(steps)]


def _draw_classes(stores: list[SortedBucket], leaves: np.ndarray, seed: int) -> None:
    """Draw class k's share of each bucket, `leaves[k]`, nearest its
    anchor, for k in turn. Its lists are freed when it returns, before the
    draws are scattered."""
    # Class k's anchor bucket is its largest share (the first, on ties).
    # When it is peeked, the classes before k have taken their shares of
    # it, so the anchor's position is uniform below what they left.
    anchors = leaves.argmax(axis=1)
    live = np.empty(len(leaves), dtype=np.int64)
    for b, store in enumerate(stores):
        share = leaves[:, b]
        at = anchors == b
        live[at] = len(store) - (np.cumsum(share) - share)[at]
    positions = np.random.default_rng(seed).integers(live).tolist()
    # A bucket's draws wait until it is peeked, or the last class is drawn,
    # and then go in one batch: shares[b][k:] from drawn[b] = k on.
    shares = leaves.T.tolist()
    drawn = [0] * len(stores)
    anchor_keys = []
    for k, (b, i) in enumerate(zip(anchors.tolist(), positions)):
        store, first = stores[b], drawn[b]
        store.draw_nearest(anchor_keys[first:], shares[b][first:k])
        drawn[b] = k
        anchor_keys.append(store.peek(i)[1])
    for b, store in enumerate(stores):
        store.draw_nearest(anchor_keys[drawn[b]:], shares[b][drawn[b]:])


def generalize(table: Table, beta: float, seed: int = 0, curve_order: int = 16) -> Release:
    """Publish the table as equivalence classes honoring the beta budget.

    Deterministic for a fixed (table, beta, seed, curve_order): class k's
    anchor is record `rng.integers(live)[k]` of its anchor bucket's live
    order, where `live[k]` is what the classes before it left there, with
    `rng = np.random.default_rng(seed)`.
    """
    partition = dp_partition(table, beta)
    dist = partition.dist
    leaves = bi_split(partition)
    keys, codes = table_keys(table, curve_order)
    stores = [SortedBucket(keys, codes[b.rows], b.rows) for b in partition.buckets]
    del keys, codes, partition
    _draw_classes(stores, leaves, seed)
    assert all(len(s) == 0 for s in stores)
    # Class k's members are its share of each bucket's draws, bucket after
    # bucket; bucket b's draws hold its classes' shares class after class.
    starts = np.cumsum(leaves, axis=None).reshape(leaves.shape) - leaves
    members = np.empty(table.n_rows, dtype=np.int64)
    for b in range(len(stores)):
        share = leaves[:, b]
        # Each share's first slot in members, less its first index in the
        # bucket's draws, plus each draw's index.
        offset = np.repeat(starts[:, b] - (np.cumsum(share) - share), share)
        members[offset + np.arange(len(offset))] = stores[b].taken()
        # The store's per-record lists go before the classes are built.
        stores[b] = None
    return Release(table.schema, dist, beta, seed, curve_order, build_ec(table, members, leaves.sum(axis=1)))
