"""Release auditors.

achieved_beta inverts the privacy model in closed form: per class and value
with a positive gain, the needed budget is the relative gain itself, unless
the gain exceeds the logarithmic cap that no finite budget relaxes. The
classifier-bound audit measures, per (QI value, SA value), how far apart the
conditional and unconditional value probabilities are in the published
classes, and runs the naive-Bayes predictor those conditionals support,
scored once per distinct QI tuple (`Table.qi_tuples`), a block of tuples
at a time. A class counts toward the QI values in its extent's span, as in
the query cube.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, DataError, Table, check_source
from .likeness import Bound, LikenessError
from .release import Release

# Distinct QI tuples scored at once: the audit's one (SCORE_CHUNK x m)
# score buffer. Also the segments whose ratios are checked at once.
SCORE_CHUNK = 4096


def _class_gains(release: Release) -> tuple[np.ndarray, np.ndarray]:
    """(gain, need). gain is (classes, m): each value's relative gain
    (q - p) / p in each class. need is each class's smallest beta under
    which it passes the enhanced check: math.inf where some frequency passes
    its p * (1 - ln p) cap, else the largest positive gain, or 0.0 if there
    is none. An empty class errors."""
    dist = release.dist
    counts = release.class_counts
    sizes = counts.sum(axis=1, keepdims=True)
    if not sizes.all():
        raise LikenessError("class is empty")
    q = counts / sizes
    p = dist.freqs()
    gain = (q - p) / p
    need = gain.max(axis=1, initial=0.0)
    # The caps with every value on the logarithmic branch; beta is unused.
    need[(q > Bound(dist, 1.0, cut=0.0).caps()).any(axis=1)] = math.inf
    return gain, need


def beta_text(beta: float) -> str:
    """A beta as the audit lines print it: "unbounded" or six decimals."""
    return "unbounded" if math.isinf(beta) else f"{beta:.6f}"


def achieved_beta(release: Release) -> float:
    """Smallest budget under which every class passes the enhanced check.

    Returns math.inf ("unbounded") when some class frequency exceeds the
    p * (1 - ln p) cap.
    """
    if not release.ecs:
        raise DataError("release has no classes")
    return float(_class_gains(release)[1].max())


def failing_classes(release: Release) -> list[int]:
    """Indices of the classes above the release's own beta (the exact check)."""
    bound = Bound(release.dist, release.beta)
    counts = release.class_counts
    sizes = counts.sum(axis=1)
    # A class whose every count is below 1 - 1e-9 of its float cap times
    # the class size passes; the bound decides the rest exactly.
    near = (counts > sizes[:, None] * bound.caps() * (1.0 - 1e-9)).any(axis=1)
    return [k for k in np.flatnonzero(near).tolist() if not bound.admits(counts[k].tolist(), int(sizes[k]))]


def ec_audit_lines(release: Release) -> list[str]:
    """One line per class: size, worst value, worst gain, required beta, pass/fail."""
    dist = release.dist
    failing = set(failing_classes(release))
    gain, need = _class_gains(release)
    # The worst value is among those the class holds.
    gain[release.class_counts == 0] = -np.inf
    worst = np.argmax(gain, axis=1).tolist()
    sizes = release.class_counts.sum(axis=1).tolist()
    lines = []
    for k, (size, w, beta) in enumerate(zip(sizes, worst, need.tolist())):
        status = "FAIL" if k in failing else "PASS"
        lines.append(
            f"ec={k} size={size} worst_value={dist.values[w]} "
            f"worst_gain={gain[k, w]:.6f} required_beta={beta_text(beta)} {status}"
        )
    return lines


@dataclass(frozen=True, eq=False)
class NbAuditReport:
    """Conditional-probability ratios and classifier accuracy on a release."""

    beta: float
    bounds: np.ndarray                 # per SA value: f(p) / p = 1 + min(beta, -ln p)
    max_ratio: np.ndarray              # per SA value: worst observed ratio
    worst: tuple[str, object, str, float]  # attribute, QI value, SA value, ratio
    worst_bound: float
    violations: int
    pairs: int
    accuracy: float
    top_frequency: float

    def lines(self) -> list[str]:
        attr, value, sa, ratio = self.worst
        return [
            f"pairs={self.pairs} violations={self.violations}",
            f"worst_ratio={ratio:.6f} at ({attr}={value}, {sa}) bound={self.worst_bound:.6f}",
            f"classifier_accuracy={self.accuracy:.6f} top_value_frequency={self.top_frequency:.6f}",
        ]


def nb_bound_audit(release: Release, table: Table) -> NbAuditReport:
    """Check Pr[qi value | sa value] <= bound * Pr[qi value] over the release.

    A class "contains" a QI value when its generalized extent covers it. The
    naive-Bayes predictor built from those conditionals is evaluated over the
    original rows; under the model's bound its accuracy should sit near the
    top value's global frequency. It predicts once per distinct QI tuple,
    scoring SCORE_CHUNK tuples at a time, so its memory is
    O((segments + SCORE_CHUNK) x m) plus O(rows), never rows x m or
    distinct tuples x m (a zip column makes nearly every row a tuple).

    The class spans cut each QI axis into segments, runs of values that
    every class covers alike; the values of a segment share their hits, so
    per QI attribute the audit holds one (segments x m) array and counts a
    violation once per value of its segment. The hits are counted, not
    scattered: weighted bincounts of the class counts at each span's first
    segment and past its last, summed down the segments. Each axis keeps
    its (segments x m) log conditionals, at most 2 x classes + 1 segments,
    and a tuple's score adds them axis after axis. `pairs` counts values x m.
    """
    dist = release.dist
    check_source(table, dist)
    m = dist.m
    p = dist.freqs()
    n_i = np.asarray(dist.counts, dtype=float)
    bound = Bound(dist, release.beta)
    bounds = bound.caps() / p

    max_ratio = np.zeros(m)
    worst = ("", 0.0, "", 0.0)
    worst_bound = float(bounds[0])
    violations = 0
    pairs = 0
    counts = release.class_counts.ravel().astype(float)    # bincount weights, class after class
    # Per axis: each value's segment, and each segment's log Pr[t | v_i].
    segments, log_conds = [], []
    for k, (attr, values) in enumerate(zip(table.schema.qi_attributes, table.qi_values)):
        # A segment starts at 0 and at each span's first value and end;
        # `segment` maps each value, and len(values), to its segment.
        first, end = table.value_spans(k, *release.class_extents[k])
        cut = np.zeros(len(values) + 1, dtype=bool)
        cut[0] = cut[-1] = cut[first] = cut[end] = True
        segment = np.cumsum(cut) - 1
        starts = np.flatnonzero(cut)
        sizes = np.diff(starts)                                    # values per segment
        # +counts at each class span's first segment, -counts past its last,
        # as weighted bincounts over the cells segment * m + SA code, then
        # summed down the segments in place. Sums of integers below 2**53
        # are exact in float64 in any order; the buffer later takes
        # log Pr[t | v_i] in place.
        cell = segment[first][:, None] * m + np.arange(m)
        hits = np.bincount(cell.ravel(), weights=counts, minlength=len(starts) * m).reshape(-1, m)
        np.add(segment[end][:, None] * m, np.arange(m), out=cell)
        hits -= np.bincount(cell.ravel(), weights=counts, minlength=hits.size).reshape(-1, m)
        del cell
        hits = np.cumsum(hits, axis=0, out=hits)[:-1]             # (segments, m)
        covered = hits.sum(axis=1)
        marginal = covered / dist.total                            # Pr[t]
        pairs += len(values) * m
        for lo in range(0, len(hits), SCORE_CHUNK):
            ratio = hits[lo : lo + SCORE_CHUNK] / n_i[None, :]     # Pr[t | v_i]
            ratio /= marginal[lo : lo + SCORE_CHUNK, None]
            # ratio > bounds is hits / covered > f(p). A pair below 1 - 1e-9
            # of its float bound cannot break it; the bound decides the rest exactly.
            for gi, si in zip(*np.nonzero(ratio > bounds[None, :] * (1.0 - 1e-9))):
                if not bound.at([si]).admits([int(hits[lo + gi, si])], int(covered[lo + gi])):
                    violations += int(sizes[lo + gi])
            gi, si = divmod(int(np.argmax(ratio)), m)
            if ratio[gi, si] > worst[3]:
                value = values[starts[lo + gi]]
                shown = attr.hierarchy.leaves[int(value)] if attr.kind == CATEGORICAL else float(value)
                worst = (attr.name, shown, dist.values[si], float(ratio[gi, si]))
                worst_bound = float(bounds[si])
            max_ratio = np.maximum(max_ratio, ratio.max(axis=0))
        log_cond = np.divide(hits, n_i[None, :], out=hits)
        with np.errstate(divide="ignore"):
            np.log(log_cond, out=log_cond)
        segments.append(segment)
        log_conds.append(log_cond)

    # Rows with the same QI values get the same scores: score each distinct
    # tuple once, a block of SCORE_CHUNK tuples at a time, and compare its
    # prediction with each of its rows. The scores' columns run in reverse
    # SA order, so that the first maximum is the highest code: among ties
    # the more frequent value is predicted.
    tuples, inverse = table.qi_tuples
    predictions = np.empty(len(tuples), dtype=table.sa_codes.dtype)
    log_p = np.log(p)[::-1]
    for lo in range(0, len(tuples), SCORE_CHUNK):
        block = tuples[lo : lo + SCORE_CHUNK]
        log_scores = np.empty((len(block), m))
        log_scores[:] = log_p
        for k, (segment, log_cond) in enumerate(zip(segments, log_conds)):
            log_scores += log_cond[segment[block[:, k]], ::-1]
        predictions[lo : lo + SCORE_CHUNK] = m - 1 - np.argmax(log_scores, axis=1)
    # The count of matches is exact, so this is the mean's float.
    accuracy = float(np.count_nonzero(np.take(predictions, inverse) == table.sa_codes) / table.n_rows)
    return NbAuditReport(
        beta=release.beta,
        bounds=bounds,
        max_ratio=max_ratio,
        worst=worst,
        worst_bound=worst_bound,
        violations=violations,
        pairs=pairs,
        accuracy=accuracy,
        top_frequency=float(p[-1]),
    )
