"""Acceptance suite: one test per release criterion.

Each test pins its tolerances explicitly and prints a one-line verdict, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

import betalike as bl
from betalike.likeness import Distribution

from conftest import brute_force_min_buckets, disease_table


def _report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# -- 1 ----------------------------------------------------------------------

def test_c01_example_table_golden():
    start = time.perf_counter()
    table = disease_table()
    part = bl.dp_partition(table, 2.0)
    names = [set(b.value_names(part.dist)) for b in part.buckets]
    assert names == [
        {"headache", "epilepsy"},
        {"brain tumors", "anemia"},
        {"angina", "heart murmur"},
    ]
    leaves = [leaf.tolist() for leaf in bl.bi_split(part)]
    assert leaves == [[1, 1, 2], [1, 2, 2], [3, 3, 4]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"3 golden buckets and leaves [[1,1,2],[1,2,2],[3,3,4]] in {elapsed:.3f}s")


# -- 2 ----------------------------------------------------------------------

def test_c02_privacy_soundness_sweep():
    start = time.perf_counter()
    profile = bl.census_like_profile(50)
    runs = violations = 0
    for size in (50_000, 100_000):
        table = bl.generate_synthetic(size, 50, seed=size, sa_freqs=profile)
        dist = bl.sa_distribution(table)
        assert dist.freq(0) == pytest.approx(0.002018, abs=5e-5)
        assert dist.freq(49) == pytest.approx(0.048402, abs=5e-5)
        for beta in (1.0, 2.0, 3.0, 4.0, 5.0):
            for seed in range(5):
                release = bl.generalize(table, beta, seed=seed)
                runs += 1
                for ec in release.ecs:
                    if not bl.check_enhanced(dist, ec.sa_counts, beta):
                        violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 300.0
    _report(2, f"0 violations over {runs} runs (2 sizes x 5 betas x 5 seeds) in {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------

def test_c03_dp_matches_exhaustive_partitioning():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 13))
        counts = tuple(sorted(int(c) for c in rng.integers(1, 60, size=m)))
        dist = Distribution(tuple(f"v{i}" for i in range(m)), counts, sum(counts))
        for beta in (0.5, 1.0, 2.0, 4.0):
            assert len(bl.partition_spans(dist, beta)) == brute_force_min_buckets(dist, beta)
            checked += 1
    _report(3, f"bucket counts equal exhaustive search on {checked} instances")


# -- 4 ----------------------------------------------------------------------

def test_c04_merge_monotonicity_exact():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        g1, g2 = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        n1, n2 = int(rng.integers(0, g1 + 1)), int(rng.integers(0, g2 + 1))
        n_v, n_rest = int(rng.integers(1, 500)), int(rng.integers(1, 500))
        p = Fraction(n_v, n_v + n_rest)
        q1, q2 = Fraction(n1, g1), Fraction(n2, g2)
        q3 = Fraction(n1 + n2, g1 + g2)
        dist = lambda q: (q - p) / p
        assert dist(q3) <= max(dist(q1), dist(q2))
    _report(4, "1000 exact merge trials, distance never exceeds the worse part")


# -- 5 ----------------------------------------------------------------------

def test_c05_frequency_bound_spot_values():
    assert bl.frequency_bound(2 / 19, 2.0) == pytest.approx(0.3158, abs=0.005)
    assert bl.frequency_bound(3 / 19, 2.0) == pytest.approx(0.449, abs=0.005)
    assert bl.frequency_bound(4 / 19, 2.0) == pytest.approx(0.538, abs=0.005)
    assert bl.frequency_bound(0.048402, 1.0) == 0.096804
    assert 0.199 <= bl.frequency_bound(0.05, 4.0) <= 0.200
    _report(5, "all five bound values inside their stated tolerances")


# -- 6 ----------------------------------------------------------------------

def test_c06_information_loss_trend(census_table):
    losses = {}
    for beta in (1.0, 2.0, 3.0, 4.0, 5.0):
        release = bl.generalize(census_table, beta, seed=1)
        losses[beta] = bl.ail(release)
        assert 0.0 < losses[beta] < 1.0
    assert losses[5.0] <= losses[1.0]
    _report(6, "AIL " + " ".join(f"b{b:.0f}={v:.3f}" for b, v in losses.items())
            + f"; b5 <= b1 and all inside (0,1)")


# -- 7 ----------------------------------------------------------------------

def test_c07_perturbation_model_correctness(census_table):
    cases = [Distribution(("a", "b"), (50, 50), 100)]
    census = bl.sa_distribution(census_table)
    models = [(cases[0], 1.0)] + [(census, float(b)) for b in range(1, 6)]
    for dist, beta in models:
        model = bl.build_model(dist, beta)
        m = model.m
        matrix = model.matrix
        # transition-ratio bound over every (source i, source j, published v)
        ratios = matrix[:, :, None] / matrix[:, None, :]
        assert (ratios <= model.ratio_bounds[None, :, None] + 1e-9).all()
        assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12
        caps = (model.ratio_bounds - 1) / (model.ratio_bounds + m - 1)
        assert (model.retention <= caps + 1e-12).all()
        post = bl.posterior(model)
        f_caps = np.asarray([bl.frequency_bound(p, beta) for p in dist.freqs()])
        assert (post.max(axis=1) <= f_caps + 1e-9).all()
    _report(7, f"{len(models)} models: ratio bound, column sums, retention caps, posterior caps")


# -- 8 ----------------------------------------------------------------------

def test_c08_reconstruction(census_table):
    start = time.perf_counter()
    census = bl.sa_distribution(census_table)
    model = bl.build_model(census, 4.0)
    true = np.asarray(census.counts, dtype=float)
    back = bl.reconstruct(model.matrix @ true, model)
    assert np.abs(back - true).max() <= 1e-9

    worst = 0.0
    for m, beta, seed in ((2, 1.0, 3), (5, 2.0, 4)):
        table = bl.generate_synthetic(100_000, m, skew=0.5, seed=seed)
        dist = bl.sa_distribution(table)
        small = bl.build_model(dist, beta)
        noisy = bl.perturb(table, small, seed=seed + 1)
        estimate = bl.reconstruct(np.bincount(noisy.sa_codes, minlength=m), small)
        l1 = float(np.abs(estimate - np.asarray(dist.counts)).sum() / table.n_rows)
        worst = max(worst, l1)
        assert l1 <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"exact round-trip at 1e-9; Monte-Carlo L1 <= {worst:.4f} in {elapsed:.1f}s")


# -- 9 ----------------------------------------------------------------------

def test_c09_query_utility_trends(census_table, census_release_b4):
    # Containment trend: larger target selectivity, no larger median error.
    plain = bl.generate_synthetic(
        100_000, 50, seed=0, sa_freqs=bl.census_like_profile(50), correlated=False
    )
    release = bl.generalize(plain, 4.0, seed=1)
    medians = []
    for theta in (0.02, 0.05, 0.1, 0.2):
        workload = bl.gen_workload(plain, 3, theta, 2000, seed=23)
        medians.append(bl.workload_report_generalized(plain, release, workload).median_error)
    assert all(a >= b for a, b in zip(medians, medians[1:]))

    # Perturbation beats the exact-QI/global-P baseline on selective workloads.
    dist = bl.sa_distribution(census_table)
    model = bl.build_model(dist, 4.0)
    noisy = bl.perturb(census_table, model, seed=2)
    workload = bl.gen_workload(census_table, 3, 0.1, 2000, seed=11)
    perturbed = bl.workload_report_perturbed(census_table, noisy, model, workload)
    baseline = bl.workload_report_baseline(census_table, dist, workload)
    assert perturbed.median_error < baseline.median_error
    _report(9, "theta medians " + " ".join(f"{x:.4f}" for x in medians)
            + f"; perturbed {perturbed.median_error:.4f} < baseline {baseline.median_error:.4f}")


# -- 10 ---------------------------------------------------------------------

def test_c10_classifier_bound_audit(census_table, census_release_b4):
    report = bl.nb_bound_audit(census_release_b4, census_table)
    assert report.violations == 0
    assert abs(report.accuracy - report.top_frequency) <= 0.02
    _report(10, f"0/{report.pairs} ratio violations; accuracy {report.accuracy:.4f} "
            f"vs top frequency {report.top_frequency:.4f}")


# -- 11 ---------------------------------------------------------------------

def test_c11_performance(census_table):
    start = time.perf_counter()
    bl.generalize(census_table, 4.0, seed=2)
    full_run = time.perf_counter() - start
    assert full_run < 60.0

    rng = np.random.default_rng(5)
    sizes = (50, 100, 200, 400)
    medians = []
    for m in sizes:
        counts = tuple(sorted(int(c) for c in rng.integers(1, 1000, size=m)))
        dist = Distribution(tuple(f"v{i}" for i in range(m)), counts, sum(counts))
        reps = max(3, 4000 // m)
        trials = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                bl.partition_spans(dist, 4.0)
            trials.append((time.perf_counter() - t0) / reps)
        medians.append(float(np.median(trials)))
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert slope <= 2.6
    _report(11, f"100k-row generalize in {full_run:.2f}s; partition growth exponent {slope:.2f}")
