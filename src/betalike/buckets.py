"""Minimum bucket partition of the SA domain.

Values are grouped into buckets of consecutive ascending-frequency runs. A
run is admissible when its total mass stays strictly below the frequency
bound of its rarest member (`Bound.admits(..., strict=True)`: exact integers
on the linear branch, the float cap on the logarithmic one); classes drawing
from buckets proportionally then keep every value inside its bound even in
the worst-case composition. Dynamic programming over run endpoints minimizes
the number of buckets. A bucket's rows are cut from one stable sort of the
per-row bucket index, a radix sort for a uint8 or uint16 index, so each
bucket's rows come out ascending.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Table, code_dtype, sa_distribution
from .likeness import Bound, Distribution


@dataclass(frozen=True)
class Bucket:
    """Rows whose SA code lies in the contiguous range [lo, hi]."""

    lo: int
    hi: int
    rows: np.ndarray
    min_freq: float
    mass: float

    @property
    def size(self) -> int:
        return len(self.rows)

    def value_names(self, dist: Distribution) -> tuple[str, ...]:
        return dist.values[self.lo : self.hi + 1]


@dataclass(frozen=True)
class BucketPartition:
    buckets: tuple[Bucket, ...]
    dist: Distribution
    beta: float


def partition_spans(dist: Distribution, beta: float) -> list[tuple[int, int]]:
    """Optimal contiguous partition of the value sequence, fewest buckets.

    Prefix recursion: best[e] = min over admissible runs (b..e) of
    best[b-1] + 1, a singleton run being the unconditioned default. Updates
    happen only on strict improvement, so among equal-count partitions the
    latest bucket is the smallest admissible one.
    """
    bound = Bound(dist, beta)
    m = dist.m
    prefix = [0]
    for c in dist.counts:
        prefix.append(prefix[-1] + c)

    best = [0] * (m + 1)
    start = [0] * (m + 1)
    for e in range(1, m + 1):
        best[e] = best[e - 1] + 1
        start[e] = e
        b = e - 1
        # Mass grows and the bound shrinks as the run extends left, so the
        # first inadmissible b ends the scan.
        while b > 0 and bound.at([b - 1]).admits([prefix[e] - prefix[b - 1]], dist.total, strict=True):
            if best[b - 1] + 1 < best[e]:
                best[e] = best[b - 1] + 1
                start[e] = b
            b -= 1
    spans = []
    e = m
    while e > 0:
        b = start[e]
        spans.append((b - 1, e - 1))
        e = b - 1
    spans.reverse()
    return spans


def dp_partition(table: Table, beta: float) -> BucketPartition:
    """Partition the table into the minimum number of admissible buckets.

    Each row's bucket index is gathered from its SA code. One stable argsort
    of that index lists the rows bucket after bucket, each bucket's rows
    ascending, and the bucket sizes cut it into the buckets' rows.
    """
    dist = sa_distribution(table)
    spans = partition_spans(dist, beta)
    index = np.arange(len(spans), dtype=code_dtype(len(spans)))
    bucket_of = np.repeat(index, [hi - lo + 1 for lo, hi in spans])[table.sa_codes]
    sizes = [sum(dist.counts[lo : hi + 1]) for lo, hi in spans]
    rows = np.split(np.argsort(bucket_of, kind="stable"), np.cumsum(sizes[:-1]))
    buckets = tuple(
        Bucket(lo, hi, r, dist.freq(lo), size / dist.total) for (lo, hi), r, size in zip(spans, rows, sizes)
    )
    return BucketPartition(buckets, dist, beta)
