from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import betalike as bl
from betalike.likeness import Distribution, InternalAuditError
from betalike.perturb import PerturbationModel, _check_model, posterior_margin

from conftest import table_from_qi_columns


def uniform_dist(m, count=100):
    return Distribution(tuple(f"v{i}" for i in range(m)), (count,) * m, count * m)


def test_ratio_bound_values():
    # Direct evaluation of (f/p) * (1-p) / (1-f).
    def oracle(p, beta):
        f = bl.frequency_bound(p, beta)
        return (f / p) * (1 - p) / (1 - f)

    assert bl.ratio_bound(0.5, 1.0) == pytest.approx(oracle(0.5, 1.0))
    assert bl.ratio_bound(0.5, 1.0) == pytest.approx(5.5178, abs=1e-4)
    assert bl.ratio_bound(0.002, 4.0) == pytest.approx(5.0404, abs=1e-4)
    # The bound degenerates to 1 exactly when prior equals posterior.
    rho = 0.3
    assert (rho / rho) * (1 - rho) / (1 - rho) == 1.0
    assert bl.ratio_bound(0.3, 2.0) > 1.0
    # A value that every row holds leaves no posterior room above its prior.
    for beta in (0.5, 4.0):
        with pytest.raises(bl.PerturbationError,
                           match=r"^value with frequency 1.0 cannot be protected by perturbation$"):
            bl.ratio_bound(1.0, beta)


def test_build_model_m2():
    model = bl.build_model(uniform_dist(2), 1.0)
    assert model.retention == pytest.approx([0.6931, 0.6931], abs=5e-4)
    assert model.floor_prob == pytest.approx(0.1534, abs=5e-4)


def test_uniform_closed_form():
    for m in (3, 8, 20):
        model = bl.build_model(uniform_dist(m), 2.0)
        gamma = model.ratio_bounds[0]
        expected = (gamma - 1) / (gamma + m - 1)
        assert model.retention == pytest.approx([expected] * m)


def test_build_model_rejects_heterogeneous_infeasible():
    skewed = Distribution(("rare", "common"), (10, 90), 100)
    with pytest.raises(bl.PerturbationError, match="no feasible retention"):
        bl.build_model(skewed, 1.0)


def test_build_model_rejects_single_value():
    with pytest.raises(bl.PerturbationError, match="two SA values"):
        bl.build_model(Distribution(("only",), (5,), 5), 1.0)


def census_model(beta=4.0, n=100_000):
    table = bl.generate_synthetic(n, 50, seed=0, sa_freqs=bl.census_like_profile(50))
    return bl.sa_distribution(table), table


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_model_invariants_census(beta):
    dist, _ = census_model()
    model = bl.build_model(dist, beta)
    m = model.m
    matrix = model.matrix
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12
    assert ((model.retention > 0) & (model.retention <= 1)).all()
    # Staying on any value beats every cross transition, pairwise.
    diag = np.diag(matrix)
    off = np.where(np.eye(m, dtype=bool), -np.inf, matrix)
    assert diag.min() > off.max()
    # Worst transition ratio per protected value, equality at the largest bound.
    scaled = matrix / matrix.min(axis=1)[:, None]
    worst = scaled.max(axis=0)
    assert (worst <= model.ratio_bounds + 1e-9).all()
    top = int(np.argmax(model.ratio_bounds))
    assert worst[top] == pytest.approx(model.ratio_bounds[top], abs=1e-9)
    # Retention cannot exceed its per-value cap.
    caps = (model.ratio_bounds - 1) / (model.ratio_bounds + m - 1)
    assert (model.retention <= caps + 1e-12).all()
    # Posterior confidence stays within the frequency bound.
    post = bl.posterior(model)
    f_caps = np.asarray([bl.frequency_bound(p, beta) for p in dist.freqs()])
    assert (post.max(axis=1) <= f_caps + 1e-9).all()
    assert np.abs(post.sum(axis=0) - 1.0).max() <= 1e-9


def test_posterior_identity_limit_violates_bound():
    dist = uniform_dist(4)
    alpha = np.full(4, 0.999999)
    off = (1 - alpha) / 4
    matrix = np.tile(off, (4, 1))
    matrix[np.diag_indices(4)] = alpha + off
    model = PerturbationModel(dist, 1.0, np.full(4, 2.0), 0.1, alpha, matrix, 1.0)
    post = bl.posterior(model)
    caps = np.asarray([bl.frequency_bound(p, 1.0) for p in dist.freqs()])
    assert (post.max(axis=1) > caps).any()


def test_posterior_margin_is_the_smallest_gap_to_the_bound():
    dist, _ = census_model()
    for beta in (1.0, 4.0):
        model = bl.build_model(dist, beta)
        caps = np.asarray([bl.frequency_bound(p, beta) for p in dist.freqs()])
        gaps = caps - bl.posterior(model).max(axis=1)
        assert posterior_margin(model) == gaps.min() >= -1e-9
    # The identity limit breaks the bound, and build_model's check says so.
    dist = uniform_dist(4)
    alpha = np.full(4, 0.999999)
    off = (1 - alpha) / 4
    matrix = np.tile(off, (4, 1))
    matrix[np.diag_indices(4)] = alpha + off
    model = PerturbationModel(dist, 1.0, np.full(4, 2.0), 0.1, alpha, matrix, 1.0)
    assert posterior_margin(model) < -1e-9
    with pytest.raises(InternalAuditError, match="posterior"):
        _check_model(replace(model, ratio_bounds=np.full(4, np.inf)))


def test_check_model_names_each_broken_invariant():
    model = bl.build_model(uniform_dist(3), 2.0)
    _check_model(model)
    # Every column sums to 1 and the diagonal is the smallest entry.
    swapped = np.full((3, 3), 0.4) - 0.2 * np.eye(3)
    for broken, message in [
        (replace(model, matrix=model.matrix * 1.01), "transition matrix columns must sum to 1"),
        (replace(model, matrix=swapped), "diagonal transition probabilities must dominate"),
        (replace(model, ratio_bounds=np.ones(3)), "transition ratio bound violated"),
    ]:
        with pytest.raises(InternalAuditError, match=f"^{message}$"):
            _check_model(broken)


def test_posterior_uniform_symmetry():
    model = bl.build_model(uniform_dist(5), 2.0)
    post = bl.posterior(model)
    assert np.allclose(np.diag(post), post[0, 0])
    off = post[~np.eye(5, dtype=bool)]
    assert np.allclose(off, off[0])


def identity_model(dist):
    m = dist.m
    return PerturbationModel(
        dist, 1.0, np.ones(m), 1.0 / m, np.ones(m), np.eye(m), 1.0
    )


def test_perturb_identity_keeps_everything(example2):
    dist = bl.sa_distribution(example2)
    out = bl.perturb(example2, identity_model(dist), seed=5)
    assert (out.sa_codes == example2.sa_codes).all()


def test_perturb_deterministic_and_qi_untouched(example2):
    dist = bl.sa_distribution(example2)
    model = bl.build_model(dist, 2.0)
    a = bl.perturb(example2, model, seed=6)
    b = bl.perturb(example2, model, seed=6)
    assert (a.sa_codes == b.sa_codes).all()
    assert a.qi_values is example2.qi_values and a.qi_codes is example2.qi_codes
    c = bl.perturb(example2, model, seed=7)
    assert (a.sa_codes != c.sa_codes).any()


def test_perturb_wrong_domain_rejected(example2):
    model = bl.build_model(uniform_dist(4), 2.0)
    with pytest.raises(bl.PerturbationError, match="different SA domain"):
        bl.perturb(example2, model, seed=0)


def test_retention_rate_matches_diagonal():
    n = 1_000_000
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("s", "sa"),
    ))
    dist = Distribution(("a", "b"), (n // 2, n // 2), n)
    model = bl.build_model(dist, 1.0)
    table = table_from_qi_columns(schema, (np.zeros(n),), np.zeros(n, dtype=np.int64), ("a", "b"))
    out = bl.perturb(table, model, seed=1)
    stay = float((out.sa_codes == 0).mean())
    expected = model.matrix[0, 0]
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(stay - expected) <= 3 * sigma


def test_empirical_columns_match_matrix():
    dist = uniform_dist(5)
    model = bl.build_model(dist, 2.0)
    n = 1_000_000
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("s", "sa"),
    ))
    for source in (0, 4):
        table = table_from_qi_columns(schema, (np.zeros(n),), np.full(n, source, dtype=np.int64), dist.values)
        out = bl.perturb(table, model, seed=source + 10)
        observed = np.bincount(out.sa_codes, minlength=5)
        _, p_value = stats.chisquare(observed, f_exp=n * model.matrix[:, source])
        assert p_value > 0.001


def test_reconstruct_identity_matrix(example2):
    dist = bl.sa_distribution(example2)
    model = identity_model(dist)
    observed = np.asarray(dist.counts, dtype=float)
    assert bl.reconstruct(observed, model) == pytest.approx(observed)


def test_reconstruct_round_trip_exact():
    dist, _ = census_model()
    model = bl.build_model(dist, 4.0)
    true = np.asarray(dist.counts, dtype=float)
    expected = model.matrix @ true
    back = bl.reconstruct(expected, model)
    assert np.abs(back - true).max() <= 1e-9
    assert abs(back.sum() - expected.sum()) <= 1e-6 * expected.sum()


def test_reconstruct_monte_carlo_small_domains():
    for m, beta, seed in ((2, 1.0, 3), (5, 2.0, 4)):
        table = bl.generate_synthetic(100_000, m, skew=0.5, seed=seed)
        dist = bl.sa_distribution(table)
        model = bl.build_model(dist, beta)
        noisy = bl.perturb(table, model, seed=seed + 1)
        observed = np.bincount(noisy.sa_codes, minlength=m)
        estimate = bl.reconstruct(observed, model)
        l1 = np.abs(estimate - np.asarray(dist.counts)).sum() / table.n_rows
        assert l1 <= 0.05


def test_reconstruct_monte_carlo_wide_domain():
    # With 50 values the retentions sit near 0.07, so reconstruction noise is
    # large; the seeded error stays within the measured scale but nowhere
    # near the small-domain figure.
    dist, table = census_model()
    model = bl.build_model(dist, 4.0)
    noisy = bl.perturb(table, model, seed=9)
    observed = np.bincount(noisy.sa_codes, minlength=50)
    estimate = bl.reconstruct(observed, model)
    l1 = np.abs(estimate - np.asarray(dist.counts)).sum() / table.n_rows
    assert l1 <= 0.35


def test_reconstruct_validates_input():
    model = bl.build_model(uniform_dist(3), 2.0)
    with pytest.raises(bl.PerturbationError, match="nonnegative"):
        bl.reconstruct([1.0, -2.0, 0.0], model)
    with pytest.raises(bl.PerturbationError):
        bl.reconstruct([1.0, 2.0], model)


@st.composite
def models_and_counts(draw):
    """A model `build_model` accepts, and a batch of observed histograms
    (zero rows and zero entries included)."""
    m = draw(st.integers(2, 60))
    counts = tuple(sorted(draw(st.lists(st.integers(1, 10**6), min_size=m, max_size=m))))
    beta = draw(st.floats(0.05, 50.0))
    try:
        model = bl.build_model(Distribution(tuple(f"v{i}" for i in range(m)), counts, sum(counts)), beta)
    except bl.PerturbationError:
        assume(False)
    rows = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 10**7), min_size=rows * m, max_size=rows * m))
    return model, np.asarray(cells, dtype=float).reshape(rows, m)


@given(models_and_counts())
@settings(max_examples=200, deadline=None)
def test_reconstruct_agrees_with_a_dense_solve(case):
    model, observed = case
    batch = bl.reconstruct(observed, model)
    assert batch.shape == observed.shape
    for y, x in zip(observed, batch):
        expected = np.linalg.solve(model.matrix, y)
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
        # Each row of a batch is exactly its own one-row reconstruction.
        assert np.array_equal(x, bl.reconstruct(y, model))
    clamped = bl.reconstruct_nonnegative(observed, model)
    for y, x in zip(observed, clamped):
        assert np.array_equal(x, bl.reconstruct_nonnegative(y, model))
        assert (x >= 0).all() and x.sum() == pytest.approx(y.sum(), rel=1e-12)
    assert np.array_equal(bl.reconstruct(observed[None], model)[0], batch)


def test_reconstruct_rejects_negative_rows_and_wrong_shapes():
    model = bl.build_model(uniform_dist(3), 2.0)
    good = np.ones((4, 3))
    for row in range(4):
        bad = good.copy()
        bad[row, 2] = -1e-9
        with pytest.raises(bl.PerturbationError, match="nonnegative"):
            bl.reconstruct(bad, model)
        with pytest.raises(bl.PerturbationError, match="nonnegative"):
            bl.reconstruct_nonnegative(bad, model)
    for shape in ((), (4,), (4, 2), (3, 4), (2, 3, 2)):
        with pytest.raises(bl.PerturbationError, match=r"shaped \(\.\.\., 3\)"):
            bl.reconstruct(np.ones(shape), model)
    assert bl.reconstruct(np.ones((2, 5, 3)), model).shape == (2, 5, 3)


def test_reconstruct_rejects_singular():
    dist = uniform_dist(2)
    matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
    model = PerturbationModel(
        dist, 1.0, np.ones(2), 0.25, np.zeros(2), matrix, float(np.linalg.cond(matrix))
    )
    with pytest.raises(bl.PerturbationError, match="singular"):
        bl.reconstruct([1.0, 1.0], model)


def test_reconstruct_nonnegative_clamps_and_conserves():
    model = bl.build_model(uniform_dist(3), 2.0)
    observed = np.array([40.0, 0.0, 0.0])
    raw = bl.reconstruct(observed, model)
    assert (raw < 0).any()
    clamped = bl.reconstruct_nonnegative(observed, model)
    assert (clamped >= 0).all()
    assert clamped.sum() == pytest.approx(observed.sum())


def test_artifact_round_trip(tmp_path, example2):
    dist = bl.sa_distribution(example2)
    model = bl.build_model(dist, 2.0)
    noisy = bl.perturb(example2, model, seed=8)
    bl.save_perturbation(tmp_path / "out", noisy, model, seed=8)
    table, loaded = bl.load_perturbation(tmp_path / "out", example2.schema)
    assert (table.sa_codes == noisy.sa_codes).all()
    assert table.sa_values == noisy.sa_values
    assert np.allclose(loaded.matrix, model.matrix)
    assert np.allclose(loaded.retention, model.retention)
    assert loaded.dist == dist
    assert loaded.beta == 2.0


def test_load_rejects_matrix_that_does_not_match_the_model(tmp_path, example2):
    dist = bl.sa_distribution(example2)
    model = bl.build_model(dist, 2.0)
    bl.save_perturbation(tmp_path / "out", bl.perturb(example2, model, seed=8), model, seed=8)
    _, loaded = bl.load_perturbation(tmp_path / "out", example2.schema)
    assert np.array_equal(loaded.matrix, model.matrix)
    pm = tmp_path / "out" / "pm.txt"
    rows = [line.split() for line in pm.read_text().splitlines()]
    rows[0][1] = repr(float(rows[0][1]) * (1 + 1e-15))
    pm.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    with pytest.raises(bl.DataError, match="pm.txt"):
        bl.load_perturbation(tmp_path / "out", example2.schema)
