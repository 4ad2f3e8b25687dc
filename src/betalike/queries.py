"""Aggregate COUNT workloads and estimators over published artifacts.

Per-query reports serialize as delimited text.

A query constrains a random subset of QI attributes plus the SA with
intervals sized so the expected selectivity matches a target under a
uniformity assumption. The generalized estimator spreads each class's
SA-matching mass uniformly over its extent; the perturbed estimator filters
on exact QI values, reconstructs the SA counts of the filtered subset, and
sums the requested range. The baseline publishes exact QI values plus only
the global SA distribution.

How the workload reports count rows: every count a report needs (precise
counts, the perturbed table's per-query SA histograms, the baseline's
QI-matching row counts) comes from per-query SA histograms, with each
query's predicates mapped to a span of each axis's distinct values by
`Table.value_spans` (inclusive and exact, as a row mask compares). Within
the cell budget the histograms are read from a prefix-sum cube over the
table's distinct QI values x SA codes (Ho, Agrawal, Megiddo, Srikant,
"Range Queries in OLAP Data Cubes", SIGMOD 1997). The cube
(`Table.prefix_cube`) is built on a table's first workload, from the cell
counts `Table.qi_tuples` kept or else in one pass over the rows, and the
table keeps it for its lifetime; each query then costs 2^d corner lookups
per SA value, all queries at once. The cube is read only when it has at
most CUBE_CELLS_PER_ROW cells per table row; a table with a
high-cardinality QI column (say a zip code) never builds one and is
counted from its QI codes in SA order (`Table.rows_by_sa`): per query, one
unsigned compare per constrained axis and one sum per SA code's rows.

Counts and estimates read one box per query, the per-axis intersection of
its predicates (`_query_boxes`). The generalized estimator works once per
distinct class extent (`Release.distinct_extents`), a chunk of queries at a
time. The perturbed estimator reconstructs every query's observed SA
histogram in one closed-form call (`perturb.reconstruct`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import CATEGORICAL, DataError, Table
from .likeness import Distribution
from .perturb import PerturbationModel, reconstruct_nonnegative
from .release import Release


@dataclass(frozen=True)
class AggregateQuery:
    """Conjunctive predicates: per chosen QI attribute an interval over its
    axis (numeric range, or contiguous leaf-rank range), plus an SA interval
    over the ascending-frequency value order. All intervals are inclusive;
    predicates on one axis mean their intersection."""

    qi: tuple[tuple[int, float, float], ...]
    sa_lo: int
    sa_hi: int


def gen_workload(table: Table, lam: int, theta: float, n: int, seed: int = 0) -> list[AggregateQuery]:
    """n random queries over `lam` QI attributes at expected selectivity theta.

    Each constrained axis (and the SA axis) gets an interval covering the
    fraction theta ** (1 / (lam + 1)) of its domain, placed uniformly.
    """
    schema = table.schema
    d = len(schema.qi_attributes)
    if not 1 <= lam <= d:
        raise DataError(f"lam must be in [1, {d}], got {lam}")
    if not 0.0 < theta < 1.0:
        raise DataError(f"theta must be in (0, 1), got {theta}")
    if n < 0:
        raise DataError(f"workload size must be >= 0, got {n}")
    frac = theta ** (1.0 / (lam + 1))
    rng = np.random.default_rng(seed)
    m = table.m
    queries = []
    for _ in range(n):
        chosen = sorted(rng.choice(d, size=lam, replace=False).tolist())
        preds = []
        for k in chosen:
            attr = schema.qi_attributes[k]
            if attr.kind == CATEGORICAL:
                leaves = attr.hierarchy.n_leaves
                width = max(1, round(leaves * frac))
                start = int(rng.integers(0, leaves - width + 1))
                preds.append((k, float(start), float(start + width - 1)))
            else:
                length = (attr.hi - attr.lo) * frac
                start = attr.lo + rng.random() * (attr.hi - attr.lo - length)
                preds.append((k, start, start + length))
        width = max(1, round(m * frac))
        sa_lo = int(rng.integers(0, m - width + 1))
        queries.append(AggregateQuery(tuple(preds), sa_lo, sa_lo + width - 1))
    return queries


def exact_count(table: Table, query: AggregateQuery) -> int:
    """Rows satisfying every predicate, SA included, compared row by row on
    the column values: the reference the workload counts are checked against."""
    mask = (table.sa_codes >= query.sa_lo) & (table.sa_codes <= query.sa_hi)
    for k, lo, hi in query.qi:
        col = table.qi_values[k][table.qi_codes[k]]
        mask &= (col >= lo) & (col <= hi)
    return int(mask.sum())


# The cube over distinct QI values x SA is built only when it has at most
# this many cells per table row; beyond that, building and scanning it costs
# more than a pass over the SA-ordered QI codes per query.
CUBE_CELLS_PER_ROW = 8

# Queries whose (queries x classes) overlap fractions the generalized
# estimator holds at once.
_QUERY_CHUNK = 32


def _cube_shape(table: Table) -> tuple[int, ...] | None:
    """(distinct values per QI column..., m) when that cube fits the cell
    budget, else None."""
    shape = (*(len(values) for values in table.qi_values), table.m)
    return shape if math.prod(shape) <= CUBE_CELLS_PER_ROW * table.n_rows else None


def _query_boxes(workload: Sequence[AggregateQuery], d: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, queries) float64 bounds: per axis, the intersection of each query's
    predicates on it. An unconstrained axis keeps (-inf, inf); NaN stays NaN."""
    preds = np.asarray([(k, i, lo, hi) for i, q in enumerate(workload) for k, lo, hi in q.qi],
                       dtype=float).reshape(-1, 4)
    at = (preds[:, 0].astype(np.intp), preds[:, 1].astype(np.intp))
    q_lo = np.full((d, len(workload)), -np.inf)
    q_hi = np.full((d, len(workload)), np.inf)
    np.maximum.at(q_lo, at, preds[:, 2])
    np.minimum.at(q_hi, at, preds[:, 3])
    return q_lo, q_hi


def _qi_histograms(table: Table, workload: Sequence[AggregateQuery]) -> np.ndarray:
    """(queries, m) int64: per query, the SA histogram of the rows matching
    its QI predicates (the SA range is not applied)."""
    d = len(table.qi_codes)
    q_lo, q_hi = _query_boxes(workload, d)
    spans = [table.value_spans(k, q_lo[k], q_hi[k]) for k in range(d)]
    if _cube_shape(table) is None:
        return _row_histograms(table, spans, len(workload))
    cube = table.prefix_cube
    out = np.zeros((len(workload), table.m), dtype=np.int64)
    # Inclusion-exclusion over the 2^d corners of each query's box.
    for upper in itertools.product((False, True), repeat=d):
        index = tuple(spans[k][1] if up else spans[k][0] for k, up in enumerate(upper))
        if (d - sum(upper)) % 2:
            out -= cube[index]
        else:
            out += cube[index]
    return out


def _row_histograms(table: Table, spans: list[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """`_qi_histograms` without a cube: per query, one pass over the QI codes
    in SA order (`Table.rows_by_sa`). Each axis whose span [first, end) is
    not the whole axis is one unsigned compare, (code - first) < (end -
    first), ANDed into the query's row mask; the mask's sum over each SA
    code's rows is its histogram."""
    codes, starts = table.rows_by_sa
    counts = np.diff(starts)
    # reduceat yields an element, not 0, for an empty segment (and rejects
    # a start equal to the length), so sum only over the SA codes that
    # have rows and scatter the sums into those.
    present = np.flatnonzero(counts)
    at = starts[present]
    # int32 sums run about twice as fast as int64 ones; no count can pass
    # n_rows.
    total = np.int32 if table.n_rows <= np.iinfo(np.int32).max else np.int64
    axes = [(c, first.tolist(), end.tolist(), len(values))
            for c, (first, end), values in zip(codes, spans, table.qi_values)]
    out = np.zeros((n, table.m), dtype=np.int64)
    for i in range(n):
        bounds = [(c, first[i], end[i]) for c, first, end, size in axes if end[i] - first[i] < size]
        if any(a == b for _, a, b in bounds):
            continue                        # an empty span matches no row
        mask = None
        for c, a, b in bounds:
            # first < end <= the axis size, so both fit the codes' dtype and
            # a code below first wraps past end - first.
            hit = (c - c.dtype.type(a)) < c.dtype.type(b - a)
            mask = hit if mask is None else np.logical_and(mask, hit, out=mask)
        if mask is None:
            out[i] = counts
        else:
            out[i, present] = np.add.reduceat(mask, at, dtype=total)
    return out


def _workload_counts(table: Table, workload: Sequence[AggregateQuery]) -> tuple[np.ndarray, np.ndarray]:
    """Per query, as int64: the rows matching its QI predicates, and the
    precise count (those rows whose SA code is in the query's range)."""
    hist = _qi_histograms(table, workload)
    cum = np.zeros((len(workload), table.m + 1), dtype=np.int64)
    np.cumsum(hist, axis=1, out=cum[:, 1:])
    first, end = _sa_spans(workload, table.m)
    picked = np.arange(len(workload))
    return cum[:, -1], cum[picked, end] - cum[picked, first]


def _sa_spans(workload: Sequence[AggregateQuery], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the span [first, end) of the SA codes c in 0..m-1 with
    sa_lo <= c <= sa_hi: the same codes the SA compare of `exact_count`
    selects, for any range."""
    lo, hi = np.asarray([(q.sa_lo, q.sa_hi) for q in workload], dtype=np.int64).reshape(-1, 2).T
    first = np.clip(lo, 0, m)
    return first, np.clip(hi + 1, first, m)


def _overlap_fractions(kind: str, lo: np.ndarray, hi: np.ndarray,
                       q_lo: np.ndarray, q_hi: np.ndarray) -> np.ndarray:
    """(queries, extents): the share of each extent [lo, hi] inside each
    query interval [q_lo, q_hi]; a point extent counts 1 inside, 0 outside."""
    q_lo, q_hi = q_lo[:, None], q_hi[:, None]
    inter = np.minimum(hi, q_hi)
    inter -= np.maximum(lo, q_lo)
    if kind == CATEGORICAL:
        inter += 1.0
        np.clip(inter, 0.0, None, out=inter)
        return np.divide(inter, hi - lo + 1.0, out=inter)
    np.clip(inter, 0.0, None, out=inter)
    width = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.divide(inter, width, out=inter)
    point = width == 0.0
    frac[:, point] = (lo[point] >= q_lo) & (lo[point] <= q_hi)
    return frac


def _generalized_estimates(release: Release, workload: Sequence[AggregateQuery]) -> np.ndarray:
    """Uniform-spread estimate of every query, as float64: per class, the
    SA-matching count (`Release.sa_prefix`) times the overlap fractions of
    the query's box with the class extent, multiplied in axis order. Each
    axis's fractions are computed over its distinct extents and gathered by
    class, a chunk of queries at a time; an unconstrained axis gives 1."""
    cum = release.sa_prefix
    kinds = [attr.kind for attr in release.schema.qi_attributes]
    q_lo, q_hi = _query_boxes(workload, len(kinds))
    first, end = (span.tolist() for span in _sa_spans(workload, release.dist.m))
    out = np.empty(len(workload))
    for start in range(0, len(workload), _QUERY_CHUNK):
        chunk = slice(start, min(start + _QUERY_CHUNK, len(workload)))
        frac = np.ones((chunk.stop - start, cum.shape[1]))
        for k, kind in enumerate(kinds):
            lo, hi, index = release.distinct_extents[k]
            fracs = _overlap_fractions(kind, lo, hi, q_lo[k, chunk], q_hi[k, chunk])
            frac *= np.take(fracs, index, axis=1)
        for i, row in enumerate(frac, start):
            out[i] = np.dot(cum[end[i]] - cum[first[i]], row)
    return out


def estimate_perturbed(
    perturbed: Table, model: PerturbationModel, query: AggregateQuery
) -> float:
    """Filter on exact QI values, reconstruct the subset's SA counts, and sum
    the queried range of the clamped reconstruction."""
    return _perturbed_estimates(perturbed, model, [query])[0]


@dataclass(frozen=True)
class WorkloadReport:
    """Per-query precision/estimate pairs and the workload's median error."""

    prec: np.ndarray
    est: np.ndarray
    errors: np.ndarray           # relative errors of the kept queries
    dropped: int                 # queries with zero precise count

    @property
    def median_error(self) -> float | None:
        return float(np.median(self.errors)) if len(self.errors) else None

    @property
    def n_queries(self) -> int:
        return len(self.prec)


def _report(prec, est) -> WorkloadReport:
    prec = np.asarray(prec, dtype=float)
    est = np.asarray(est, dtype=float)
    kept = prec > 0
    errors = np.abs(est[kept] - prec[kept]) / prec[kept]
    return WorkloadReport(prec, est, errors, int((~kept).sum()))


def save_report(report: WorkloadReport, path) -> None:
    """Per query: precise count, estimate, relative error (blank when the
    query was dropped for zero precision)."""
    lines = ["query,prec,est,relative_error"]
    kept = iter(report.errors)
    for i, (prec, est) in enumerate(zip(report.prec, report.est)):
        err = "" if prec == 0 else repr(float(next(kept)))
        lines.append(f"{i},{prec:g},{float(est)!r},{err}")
    med = report.median_error
    lines.append(f"# median_relative_error={'undefined' if med is None else repr(med)} "
                 f"dropped={report.dropped}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def workload_report_generalized(table: Table, release: Release, workload) -> WorkloadReport:
    _, prec = _workload_counts(table, workload)
    return _report(prec, _generalized_estimates(release, workload))


def workload_report_perturbed(table: Table, perturbed: Table, model: PerturbationModel, workload) -> WorkloadReport:
    """estimate_perturbed on every query, from one histogram pass over the
    perturbed table."""
    _, prec = _workload_counts(table, workload)
    return _report(prec, _perturbed_estimates(perturbed, model, workload))


def _perturbed_estimates(perturbed: Table, model: PerturbationModel, workload) -> list[float]:
    """estimate_perturbed on every query: one reconstruction of all the
    queries' observed SA histograms, each summed over its SA range."""
    estimates = reconstruct_nonnegative(_qi_histograms(perturbed, workload), model)
    first, end = _sa_spans(workload, model.m)
    return [float(row[a:b].sum()) for row, a, b in zip(estimates, first.tolist(), end.tolist())]


def workload_report_baseline(table: Table, dist: Distribution, workload) -> WorkloadReport:
    """Anatomy-style baseline on every query: exact QI plus only the global
    SA distribution, from the same counts as the precise ones."""
    rows, prec = _workload_counts(table, workload)
    return _report(prec, _baseline_from_rows(rows, dist, workload))


def _baseline_from_rows(rows: np.ndarray, dist: Distribution, workload) -> list[float]:
    freqs = dist.freqs()
    first, end = _sa_spans(workload, dist.m)
    return [float(r * freqs[a:b].sum()) for r, a, b in zip(rows, first.tolist(), end.tolist())]


def perturbation_reports(table: Table, perturbed: Table, model: PerturbationModel,
                         workload) -> dict[str, WorkloadReport]:
    """The "perturbed" and "baseline" reports of a perturbation artifact,
    equal to `workload_report_perturbed` and `workload_report_baseline` (with
    the model's distribution), from one count of the workload on `table`."""
    rows, prec = _workload_counts(table, workload)
    return {
        "perturbed": _report(prec, _perturbed_estimates(perturbed, model, workload)),
        "baseline": _report(prec, _baseline_from_rows(rows, model.dist, workload)),
    }
