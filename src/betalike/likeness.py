"""The relative-gain privacy model.

An adversary who knows the overall sensitive-attribute distribution P gains
information from a published equivalence class whose distribution Q pushes
some value's frequency above its global one. The model caps that gain in
relative terms: q <= p * (1 + min(beta, -ln p)) for every value, so rare
values get the full beta budget while frequent ones are bent away from
certainty.

`Bound.admits` is the one place that cap is compared: non-strict for
classes, strict for bucket runs.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class LikenessError(ValueError):
    pass


class InternalAuditError(RuntimeError):
    """A freshly built artifact breaks a guarantee its builder owes."""


@dataclass(frozen=True)
class Distribution:
    """Overall SA distribution: values in ascending frequency order.

    Counts are kept exact; frequencies are materialized only where compared.
    """

    values: tuple[str, ...]
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.values) != len(self.counts) or not self.values:
            raise LikenessError("values and counts must align and be non-empty")
        if sum(self.counts) != self.total:
            raise LikenessError("counts do not sum to total")
        if any(c <= 0 for c in self.counts):
            raise LikenessError("every value must have a positive count")
        if any(a > b for a, b in zip(self.counts, self.counts[1:])):
            raise LikenessError("counts must be in ascending order")

    @property
    def m(self) -> int:
        return len(self.values)

    def freqs(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total

    def freq(self, i: int) -> float:
        return self.counts[i] / self.total


def frequency_bound(p: float, beta: float) -> float:
    """Largest in-class frequency allowed for a value of global frequency p.

    Linear (1 + beta) * p while p <= e^-beta, then p * (1 - ln p): continuous,
    strictly increasing, and equal to 1 at p = 1.
    """
    _check_beta(beta)
    if not 0.0 < p <= 1.0:
        raise LikenessError(f"frequency must be in (0, 1], got {p}")
    if p <= math.exp(-beta):
        return p * (1.0 + beta)
    return p * (1.0 - math.log(p))


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise LikenessError(f"beta must be a finite number > 0, got {beta}")


def one_plus_beta(beta: float) -> tuple[int, int]:
    """(1 + beta) as an exact integer ratio of the given float."""
    f = 1 + Fraction(beta)
    return f.numerator, f.denominator


def _as_counts(dist: Distribution, counts: Sequence[int] | np.ndarray) -> tuple[list[int], int]:
    """A class's counts as Python ints, checked, and its size."""
    arr = np.asarray(counts, dtype=np.int64)
    if arr.shape != (dist.m,):
        raise LikenessError(f"class counts must align with the {dist.m} SA values")
    if (arr < 0).any():
        raise LikenessError("class counts must be nonnegative")
    if arr.sum() == 0:
        raise LikenessError("class is empty")
    return arr.tolist(), int(arr.sum())


class Bound:
    """The cap q <= f(p) = p * (1 + min(beta, -ln p)) of every SA value.

    Built once per (distribution, beta); `admits` is the one comparison
    every privacy check makes. On the linear branch (p <= e^-beta) a cap
    (1 + beta) * N_i / total is the exact integer pair (num * N_i,
    den * total) from `one_plus_beta`, so a class sitting on it cannot flip;
    on the logarithmic branch it is the float p * (1 - ln p), with no slack.
    """

    def __init__(self, dist: Distribution, beta: float, cut: float | None = None) -> None:
        # The basic model passes cut=1.0 (every value linear); cut=0.0 gives
        # the limit as beta grows (every value logarithmic).
        _check_beta(beta)
        num, den = one_plus_beta(beta)
        cut = math.exp(-beta) if cut is None else cut
        self.terms = [
            (num * n_i, den * dist.total, 0.0) if n_i / dist.total <= cut
            else (0, 0, n_i / dist.total * (1.0 - math.log(n_i / dist.total)))
            for n_i in dist.counts
        ]

    def at(self, values: Iterable[int]) -> "Bound":
        """The caps of the given SA value indices, in that order."""
        sub = copy.copy(self)
        sub.terms = [self.terms[i] for i in values]
        return sub

    def admits(self, counts, size: int, strict: bool = False) -> bool:
        """Is counts[j] / size at or below the j-th cap for every positive
        count (strictly below when `strict`)? A plain loop with early exit:
        the halving tree calls it tens of thousands of times per release."""
        for c, (num, den, cap) in zip(counts, self.terms):
            if c:
                excess = int(c) * den - num * size if den else c / size - cap
                if excess > 0 or strict and excess == 0:
                    return False
        return True

    def caps(self) -> np.ndarray:
        """The caps as floats, for screening and display."""
        return np.asarray([num / den if den else cap for num, den, cap in self.terms])


@functools.lru_cache(maxsize=32)
def _bound(dist: Distribution, beta: float, cut: float | None = None) -> Bound:
    """One Bound per (distribution, beta) for the per-class checks."""
    return Bound(dist, beta, cut)


def check_basic(dist: Distribution, counts, beta: float) -> bool:
    """Does the class keep every value's relative gain at or below beta?"""
    return _bound(dist, beta, cut=1.0).admits(*_as_counts(dist, counts))


def check_enhanced(dist: Distribution, counts, beta: float) -> bool:
    """Basic check tightened so no value can approach certainty.

    Every present value must satisfy q <= frequency_bound(p, beta); values
    absent from the class pass by definition.
    """
    return _bound(dist, beta).admits(*_as_counts(dist, counts))

