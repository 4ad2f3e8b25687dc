"""Per-value randomized response over the sensitive attribute.

Each row keeps its SA value with a per-value retention probability and
otherwise replaces it with a uniform draw over the whole domain (possibly the
original value again). Retention probabilities are the largest ones for which
the ratio of any two transition probabilities into the same published value
stays within each value's bound, so the adversary's posterior confidence in
value i never exceeds frequency_bound(p_i, beta). The column-stochastic
transition matrix is published with the data. It is diag(retention) plus a
rank-one term (every row is the vector off = (1 - retention) / m), so true
counts are recovered from observed ones in closed form (Sherman-Morrison),
for one histogram or a whole batch at once; FRAPP's gamma-diagonal matrices
have the same form (Agrawal & Haritsa, ICDE 2005).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (DataError, Table, code_dtype, distribution_from_obj, distribution_to_obj, json_beta, json_seed,
                   load_table, read_json, save_table)
from .likeness import Distribution, frequency_bound


class PerturbationError(ValueError):
    pass


COND_LIMIT = 1e12


def ratio_bound(p: float, beta: float) -> float:
    """Largest allowed ratio Pr(v_i -> v) / Pr(v_j -> v) protecting value i.

    Derived from the prior/posterior pair (p, frequency_bound(p, beta));
    always > 1 for p < 1.
    """
    rho2 = frequency_bound(p, beta)
    if rho2 >= 1.0:
        raise PerturbationError(
            f"value with frequency {p} cannot be protected by perturbation"
        )
    return (rho2 / p) * (1.0 - p) / (1.0 - rho2)


@dataclass(frozen=True, eq=False)
class PerturbationModel:
    """Published randomization: retention vector and transition matrix.

    matrix[r, c] = Pr(value c is published as value r); columns sum to 1.
    """

    dist: Distribution
    beta: float
    ratio_bounds: np.ndarray
    floor_prob: float
    retention: np.ndarray
    matrix: np.ndarray
    cond: float

    @property
    def m(self) -> int:
        return self.dist.m


def build_model(dist: Distribution, beta: float) -> PerturbationModel:
    """Derive retention probabilities and the transition matrix for `dist`.

    Raises when the domain is too small or when heterogeneous ratio bounds
    push some retention probability to zero or below, in which case no
    uniform-replacement scheme of this form exists.
    """
    m = dist.m
    if m < 2:
        raise PerturbationError("perturbation needs at least two SA values")
    p = dist.freqs()
    gammas = np.asarray([ratio_bound(pi, beta) for pi in p])
    floor_prob = 1.0 / (gammas.max() + m - 1)
    retention = (m * gammas * floor_prob - 1.0) / (m - 1)
    if (retention <= 0.0).any():
        worst = dist.values[int(np.argmin(retention))]
        raise PerturbationError(
            f"no feasible retention probability for {worst!r}: the ratio bounds "
            "are too heterogeneous for uniform replacement at this beta"
        )
    if (retention > 1.0).any():
        raise PerturbationError("retention probability above 1; inconsistent model")
    off = (1.0 - retention) / m
    matrix = np.tile(off, (m, 1))
    matrix[np.diag_indices(m)] = retention + off
    cond = float(np.linalg.cond(matrix))

    model = PerturbationModel(dist, beta, gammas, floor_prob, retention, matrix, cond)
    _check_model(model)
    return model


def _check_model(model: PerturbationModel) -> None:
    m = model.m
    matrix = model.matrix
    col_sums = matrix.sum(axis=0)
    if np.abs(col_sums - 1.0).max() > 1e-12:
        raise PerturbationError("transition matrix columns must sum to 1")
    # Diagonal dominance: staying on any value is strictly likelier than any
    # cross transition, whichever pair is compared.
    diag = np.diag(matrix)
    off_max = float(np.where(np.eye(m, dtype=bool), -np.inf, matrix).max())
    if not diag.min() > off_max - 1e-15:
        raise PerturbationError("diagonal transition probabilities must dominate")
    # Worst-case transition ratio per protected value i, over all (j, v):
    # matrix[v, i] / matrix[v, j] maximized by the smallest entry of row v.
    scaled = matrix / matrix.min(axis=1)[:, None]
    if (scaled.max(axis=0) > model.ratio_bounds + 1e-9).any():
        raise PerturbationError("transition ratio bound violated")
    if posterior_margin(model) < -1e-9:
        raise PerturbationError("posterior confidence exceeds the frequency bound")


def perturb(table: Table, model: PerturbationModel, seed: int = 0) -> Table:
    """Randomize the SA column; QI values are returned untouched.

    The output table keeps the input's SA code order (the published one), so
    its codes stay aligned with the model's matrix.
    """
    if tuple(model.dist.values) != tuple(table.sa_values):
        raise PerturbationError("model was built for a different SA domain")
    rng = np.random.default_rng(seed)
    codes = table.sa_codes
    keep = rng.random(table.n_rows) < model.retention[codes]
    replacement = rng.integers(0, model.m, size=table.n_rows)
    return replace(table, sa_codes=np.where(keep, codes, replacement.astype(codes.dtype)))


def posterior(model: PerturbationModel) -> np.ndarray:
    """posterior[i, v] = confidence that a row published as v originally held i."""
    p = model.dist.freqs()
    joint = model.matrix * p[None, :]          # [v, i] = p_i * Pr(i -> v)
    return (joint / joint.sum(axis=1, keepdims=True)).T


def posterior_margin(model: PerturbationModel) -> float:
    """Min over values i of frequency_bound(p_i, beta) minus the largest posterior
    in i: a float on the bound by construction, so compare it with a tolerance."""
    caps = np.asarray([frequency_bound(pi, model.beta) for pi in model.dist.freqs()])
    # Negated excess: a posterior exactly on its cap gives -0.0, printed as -0.000000.
    return -float((posterior(model).max(axis=1) - caps).max())


def reconstruct(observed, model: PerturbationModel) -> np.ndarray:
    """Estimate true counts from observed ones by inverting the transitions.

    `observed` is shaped (..., m), one histogram per row. The matrix is
    diag(r) + 1 offᵀ, so x = (y - s) / r with s = Σ(y·w) / (1 + Σw) and
    w = off / r. Each row is reduced on its own, so its result does not
    depend on the rest of the batch. The result is real-valued and may have
    negative components; see reconstruct_nonnegative for the clamped variant
    used in estimation.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.ndim == 0 or obs.shape[-1] != model.m or (obs < 0).any():
        raise PerturbationError(f"observed counts must be nonnegative, shaped (..., {model.m})")
    if model.cond > COND_LIMIT:
        raise PerturbationError(f"transition matrix is numerically singular (cond={model.cond:.3g})")
    retention = model.retention
    w = (1.0 - retention) / model.m / retention
    shift = (obs * w).sum(axis=-1, keepdims=True) / (1.0 + w.sum())
    return (obs - shift) / retention


def reconstruct_nonnegative(observed, model: PerturbationModel) -> np.ndarray:
    """Clamp negative reconstructed counts to zero, preserving each row's total."""
    raw = reconstruct(observed, model)
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum(axis=-1, keepdims=True)
    target = np.asarray(observed, dtype=float).sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0.0, clamped * (target / total), 0.0)


# ---------------------------------------------------------------------------
# Published artifact: perturbed table + transition matrix + overall P.

_TABLE_FILE = "perturbed.csv"
_MATRIX_FILE = "pm.txt"
_DIST_FILE = "distribution.json"


def _in_published_order(table: Table, order: tuple[str, ...], path) -> Table:
    """`table` with its SA codes renumbered to index `order`, the value order
    a perturbation publishes, so that they stay aligned with its transition
    matrix. The table's values may be a subset of `order` (randomization can
    drive a rare value's count to zero), never a superset."""
    unknown = set(table.sa_values) - set(order)
    if unknown:
        raise DataError(f"{path}: SA values {sorted(unknown)} not in the declared order")
    remap = np.asarray([order.index(v) for v in table.sa_values], dtype=code_dtype(len(order)))
    return replace(table, sa_codes=remap[table.sa_codes], sa_values=tuple(order))


def check_qi_source(table: Table, perturbed: Table) -> None:
    """A DataError unless `table` holds the QI columns of the perturbed
    table, which `perturb` copies from its source unchanged. Values compare
    by `==`, so a -0 in the source and the 0 written for it agree."""
    for k, attr in enumerate(table.schema.qi_attributes):
        if not (np.array_equal(table.qi_values[k], perturbed.qi_values[k])
                and np.array_equal(table.qi_codes[k], perturbed.qi_codes[k])):
            raise DataError(f"table is not the artifact's source: its {attr.name!r} column "
                            "differs from the perturbed table's")


def save_perturbation(outdir, perturbed: Table, model: PerturbationModel, seed: int) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_table(perturbed, outdir / _TABLE_FILE)
    lines = [" ".join(repr(float(x)) for x in row) for row in model.matrix]
    (outdir / _MATRIX_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    obj = {
        "kind": "perturbed-release",
        "beta": model.beta,
        "seed": seed,
        **distribution_to_obj(model.dist, perturbed.schema),
    }
    (outdir / _DIST_FILE).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def load_perturbation(outdir, schema) -> tuple[Table, PerturbationModel]:
    """Read a published artifact back. The model is rebuilt from the
    published distribution and beta, and the published matrix must equal
    the rebuilt one exactly (save_perturbation writes round-trip reprs).
    The seed must be >= 0 and the attribute the schema's SA attribute, and
    the perturbed table must hold the distribution's total of rows, as
    `perturb` writes. The table's SA codes follow the published value order,
    as the matrix's rows and columns do."""
    outdir = Path(outdir)
    dist_path = outdir / _DIST_FILE
    try:
        obj = read_json(dist_path)
    except FileNotFoundError:
        raise DataError(f"{outdir}: not a perturbation artifact (missing {_DIST_FILE})") from None
    if not isinstance(obj, dict) or obj.get("kind") != "perturbed-release":
        raise DataError(f"{dist_path}: not a perturbed-release distribution")
    dist = distribution_from_obj(obj, dist_path, schema)
    beta = json_beta(obj, dist_path)
    json_seed(obj, dist_path)
    matrix_path = outdir / _MATRIX_FILE
    try:
        with warnings.catch_warnings():
            # An empty file fails the shape check below; numpy's warning would add a line.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(matrix_path, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{matrix_path}: not a transition matrix ({exc})") from None
    if matrix.shape != (dist.m, dist.m):
        raise DataError(f"{matrix_path}: transition matrix shape {matrix.shape} does not match m={dist.m}")
    model = build_model(dist, float(beta))
    if not np.array_equal(matrix, model.matrix):
        raise DataError(
            f"{matrix_path}: transition matrix differs from the one the published "
            "distribution and beta determine"
        )
    table_path = outdir / _TABLE_FILE
    table = _in_published_order(load_table(table_path, schema), dist.values, table_path)
    if table.n_rows != dist.total:
        raise DataError(f"{table_path}: {table.n_rows} rows, but {_DIST_FILE} "
                        f"publishes a total of {dist.total}")
    return table, model
