"""Aggregate COUNT workloads and estimators over published artifacts.

Workloads and per-query reports serialize as delimited text, so a workload
can be fixed once and replayed against several artifacts.

A query constrains a random subset of QI attributes plus the SA with
intervals sized so the expected selectivity matches a target under a
uniformity assumption. The generalized estimator spreads each class's
SA-matching mass uniformly over its extent; the perturbed estimator filters
on exact QI values, reconstructs the SA counts of the filtered subset, and
sums the requested range. The baseline publishes exact QI values plus only
the global SA distribution.

How the workload reports count rows: every count a report needs (precise
counts, the perturbed table's per-query SA histograms, the baseline's
QI-matching row counts) is read from a prefix-sum cube over the table's
distinct QI values x SA codes (Ho, Agrawal, Megiddo, Srikant, "Range
Queries in OLAP Data Cubes", SIGMOD 1997). One pass over the rows builds
the cube; each query then costs 2^d corner lookups per SA value, all
queries at once, with predicates mapped to distinct values by
`Table.value_spans` (inclusive, as a row mask compares). The cube is built
only when it has at most CUBE_CELLS_PER_ROW cells per table row; a table
with a high-cardinality QI column (say a zip code) is counted with per-query
row masks instead. The generalized estimator builds one SA prefix per workload.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import CATEGORICAL, DataError, Table
from .likeness import Distribution
from .perturb import PerturbationModel, reconstruct_nonnegative
from .release import Release


@dataclass(frozen=True)
class AggregateQuery:
    """Conjunctive predicates: per chosen QI attribute an interval over its
    axis (numeric range, or contiguous leaf-rank range), plus an SA interval
    over the ascending-frequency value order. All intervals are inclusive."""

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


def _qi_mask(table: Table, query: AggregateQuery) -> np.ndarray:
    mask = np.ones(table.n_rows, dtype=bool)
    for k, lo, hi in query.qi:
        col = table.qi_columns[k]
        mask &= (col >= lo) & (col <= hi)
    return mask


def _sa_mask(table: Table, query: AggregateQuery) -> np.ndarray:
    return (table.sa_codes >= query.sa_lo) & (table.sa_codes <= query.sa_hi)


def exact_count(table: Table, query: AggregateQuery) -> int:
    """Rows satisfying every predicate, SA included."""
    mask = _qi_mask(table, query)
    mask &= _sa_mask(table, query)
    return int(mask.sum())


# The cube over distinct QI values x SA is built only when it has at most
# this many cells per table row; beyond that, building and scanning it costs
# more than row masks.
CUBE_CELLS_PER_ROW = 8


def _cube_shape(table: Table) -> tuple[int, ...] | None:
    """(distinct values per QI column..., m) when that cube fits the cell
    budget, else None."""
    shape = (*(len(values) for values in table.qi_values), table.m)
    return shape if math.prod(shape) <= CUBE_CELLS_PER_ROW * table.n_rows else None


def _prefix_cube(table: Table, shape: tuple[int, ...]) -> np.ndarray:
    """Zero-padded prefix sums: cube[i_1, ..., i_d, s] counts the rows with
    SA code s whose value on every QI axis k is among its first i_k
    distinct values."""
    *sizes, m = shape
    counts = np.bincount(np.ravel_multi_index((*table.qi_codes, table.sa_codes), shape),
                         minlength=math.prod(shape))
    cube = np.zeros(tuple(n + 1 for n in sizes) + (m,), dtype=np.int64)
    cube[(slice(1, None),) * len(sizes)] = counts.reshape(shape)
    for axis in range(len(sizes)):
        np.cumsum(cube, axis=axis, out=cube)
    return cube


def _qi_histograms(table: Table, workload: Sequence[AggregateQuery]) -> np.ndarray:
    """(queries, m) int64: per query, the SA histogram of the rows matching
    its QI predicates (the SA range is not applied)."""
    out = np.zeros((len(workload), table.m), dtype=np.int64)
    shape = _cube_shape(table)
    if shape is None:
        for i, q in enumerate(workload):
            out[i] = np.bincount(table.sa_codes[_qi_mask(table, q)], minlength=table.m)
        return out
    cube = _prefix_cube(table, shape)
    d = len(shape) - 1
    # Per axis, the intersection of the query's predicates on it; an
    # unconstrained axis keeps (-inf, inf), and a NaN bound matches no row.
    preds = np.asarray([(k, i, lo, hi) for i, q in enumerate(workload) for k, lo, hi in q.qi],
                       dtype=float).reshape(-1, 4)
    at = (preds[:, 0].astype(np.intp), preds[:, 1].astype(np.intp))
    q_lo = np.full((d, len(workload)), -np.inf)
    q_hi = np.full((d, len(workload)), np.inf)
    np.maximum.at(q_lo, at, preds[:, 2])
    np.minimum.at(q_hi, at, preds[:, 3])
    corners = [table.value_spans(k, q_lo[k], q_hi[k]) for k in range(d)]
    # Inclusion-exclusion over the 2^d corners of each query's box.
    for upper in itertools.product((False, True), repeat=d):
        index = tuple(corners[k][1] if up else corners[k][0] for k, up in enumerate(upper))
        if (d - sum(upper)) % 2:
            out -= cube[index]
        else:
            out += cube[index]
    return out


def _workload_counts(table: Table, workload: Sequence[AggregateQuery]) -> tuple[np.ndarray, np.ndarray]:
    """Per query, as int64: the rows matching its QI predicates, and the
    precise count (those rows whose SA code is in the query's range)."""
    if _cube_shape(table) is None:
        rows = np.zeros(len(workload), dtype=np.int64)
        prec = np.zeros(len(workload), dtype=np.int64)
        for i, q in enumerate(workload):
            mask = _qi_mask(table, q)
            rows[i] = np.count_nonzero(mask)
            mask &= _sa_mask(table, q)
            prec[i] = np.count_nonzero(mask)
        return rows, prec
    hist = _qi_histograms(table, workload)
    cum = np.zeros((len(workload), table.m + 1), dtype=np.int64)
    np.cumsum(hist, axis=1, out=cum[:, 1:])
    spans = [_sa_span(q, table.m) for q in workload]
    first, end = np.asarray([(s.start, s.stop) for s in spans], dtype=np.intp).reshape(-1, 2).T
    picked = np.arange(len(workload))
    return cum[:, -1], cum[picked, end] - cum[picked, first]


def _sa_span(query: AggregateQuery, m: int) -> slice:
    """The SA codes c in 0..m-1 with sa_lo <= c <= sa_hi, as a slice: the
    same codes the SA compare of `exact_count` selects, for any range."""
    first = min(max(query.sa_lo, 0), m)
    return slice(first, min(max(query.sa_hi + 1, first), m))


def _overlap_fractions(kind: str, lo: np.ndarray, hi: np.ndarray, q_lo: float, q_hi: float) -> np.ndarray:
    if kind == CATEGORICAL:
        inter = np.minimum(hi, q_hi) - np.maximum(lo, q_lo) + 1.0
        return np.clip(inter, 0.0, None) / (hi - lo + 1.0)
    width = hi - lo
    point = width == 0.0
    inter = np.clip(np.minimum(hi, q_hi) - np.maximum(lo, q_lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(point, ((lo >= q_lo) & (lo <= q_hi)).astype(float), inter / width)
    return frac


def estimate_generalized(release: Release, query: AggregateQuery) -> float:
    """Uniform-spread estimate: per class, SA-matching count times the
    product of per-axis overlap fractions with the class extent."""
    return _generalized_estimates(release, [query])[0]


def _generalized_estimates(release: Release, workload: Sequence[AggregateQuery]) -> list[float]:
    """estimate_generalized on every query, from one SA prefix over the classes."""
    cum = np.cumsum(np.pad(release.class_counts, ((0, 0), (1, 0))), axis=1).astype(float)
    out = []
    for query in workload:
        span = _sa_span(query, release.dist.m)
        sa_match = cum[:, span.stop] - cum[:, span.start]
        frac = np.ones(len(cum))
        for k, q_lo, q_hi in query.qi:
            frac *= _overlap_fractions(release.schema.qi_attributes[k].kind, *release.class_extents[k],
                                       q_lo, q_hi)
        out.append(float(np.dot(sa_match, frac)))
    return out


def estimate_perturbed(
    perturbed: Table, model: PerturbationModel, query: AggregateQuery
) -> float:
    """Filter on exact QI values, reconstruct the subset's SA counts, and sum
    the queried range of the clamped reconstruction."""
    mask = _qi_mask(perturbed, query)
    observed = np.bincount(perturbed.sa_codes[mask], minlength=model.m)
    return _reconstructed_range(observed, model, query)


def _reconstructed_range(observed: np.ndarray, model: PerturbationModel, query: AggregateQuery) -> float:
    estimate = reconstruct_nonnegative(observed, model)
    return float(estimate[_sa_span(query, model.m)].sum())


def baseline_estimate(table: Table, dist: Distribution, query: AggregateQuery) -> float:
    """Anatomy-style baseline: exact QI plus only the global SA distribution."""
    return _baseline_value(_qi_mask(table, query).sum(), dist.freqs(), query)


def _baseline_value(rows, freqs: np.ndarray, query: AggregateQuery) -> float:
    return float(rows * freqs[_sa_span(query, len(freqs))].sum())


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


def evaluate_workload(
    table: Table,
    estimator: Callable[[AggregateQuery], float],
    workload: Sequence[AggregateQuery],
) -> WorkloadReport:
    """Relative error per query against the original table; zero-precision
    queries are dropped and the median is over the rest."""
    _, prec = _workload_counts(table, workload)
    return _report(prec, [estimator(q) for q in workload])


def _report(prec, est) -> WorkloadReport:
    prec = np.asarray(prec, dtype=float)
    est = np.asarray(est, dtype=float)
    kept = prec > 0
    errors = np.abs(est[kept] - prec[kept]) / prec[kept]
    return WorkloadReport(prec, est, errors, int((~kept).sum()))


def save_workload(workload: Sequence[AggregateQuery], path) -> None:
    """One query per line: `k:lo:hi` QI predicates separated by semicolons,
    then the SA code range."""
    lines = ["qi_predicates,sa_lo,sa_hi"]
    for q in workload:
        preds = ";".join(f"{k}:{lo!r}:{hi!r}" for k, lo, hi in q.qi)
        lines.append(f"{preds},{q.sa_lo},{q.sa_hi}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_workload(path) -> list[AggregateQuery]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "qi_predicates,sa_lo,sa_hi":
        raise DataError(f"{path}: not a workload file")
    out = []
    for line in lines[1:]:
        if not line:
            continue
        preds_txt, sa_lo, sa_hi = line.rsplit(",", 2)
        preds = []
        for item in preds_txt.split(";"):
            k, lo, hi = item.split(":")
            preds.append((int(k), float(lo), float(hi)))
        out.append(AggregateQuery(tuple(preds), int(sa_lo), int(sa_hi)))
    return out


def save_report(report: WorkloadReport, path) -> None:
    """Per query: precise count, estimate, relative error (blank when the
    query was dropped for zero precision)."""
    lines = ["query,prec,est,relative_error"]
    kept = iter(report.errors)
    for i, (prec, est) in enumerate(zip(report.prec, report.est)):
        err = "" if prec == 0 else repr(float(next(kept)))
        lines.append(f"{i},{prec:g},{est!r},{err}")
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
    observed = _qi_histograms(perturbed, workload)
    return [_reconstructed_range(o, model, q) for o, q in zip(observed, workload)]


def workload_report_baseline(table: Table, dist: Distribution, workload) -> WorkloadReport:
    """baseline_estimate on every query, from the same counts as the
    precise ones."""
    rows, prec = _workload_counts(table, workload)
    return _report(prec, _baseline_estimates(rows, dist, workload))


def _baseline_estimates(rows: np.ndarray, dist: Distribution, workload) -> list[float]:
    freqs = dist.freqs()
    return [_baseline_value(r, freqs, q) for r, q in zip(rows, workload)]


def perturbation_reports(table: Table, perturbed: Table, model: PerturbationModel,
                         workload) -> dict[str, WorkloadReport]:
    """The "perturbed" and "baseline" reports of a perturbation artifact,
    equal to `workload_report_perturbed` and `workload_report_baseline` (with
    the model's distribution), from one count of the workload on `table`."""
    rows, prec = _workload_counts(table, workload)
    return {
        "perturbed": _report(prec, _perturbed_estimates(perturbed, model, workload)),
        "baseline": _report(prec, _baseline_estimates(rows, model.dist, workload)),
    }
