from __future__ import annotations

import json

import numpy as np
import pytest

import betalike as bl
from betalike.release import release_to_obj

def make_bucket(keys, rows=None):
    rows = np.arange(len(keys)) if rows is None else np.asarray(rows)
    return bl.SortedBucket(np.asarray(keys, dtype=np.int64), rows)


def test_draw_nearest_two_sided():
    b = make_bucket([10, 20, 30, 40])
    got = b.draw_nearest(21, 2)
    assert sorted(got.tolist()) == [1, 2]      # keys 20 and 30


def test_draw_nearest_one_sided_below():
    b = make_bucket([10, 20, 30, 40])
    assert b.draw_nearest(3, 1).tolist() == [0]


def test_draw_whole_bucket():
    b = make_bucket([10, 20, 30, 40])
    got = b.draw_nearest(999, 4)
    assert sorted(got.tolist()) == [0, 1, 2, 3]
    assert len(b) == 0


def test_draw_consumes_across_calls():
    b = make_bucket([10, 20, 30, 40])
    first = b.draw_nearest(21, 2)
    second = b.draw_nearest(21, 2)
    assert sorted(first.tolist() + second.tolist()) == [0, 1, 2, 3]
    assert sorted(second.tolist()) == [0, 3]


def test_draw_overdraw_errors():
    b = make_bucket([10, 20])
    with pytest.raises(bl.DataError, match="cannot draw"):
        b.draw_nearest(0, 3)


def test_equal_keys_keep_row_order():
    b = make_bucket([5, 5, 5], rows=[30, 10, 20])
    assert b.draw_nearest(5, 2).tolist() == [10, 20]


def test_tie_prefers_lower_key():
    b = make_bucket([10, 30])
    assert b.draw_nearest(20, 1).tolist() == [0]


def test_random_draws_deterministic():
    a = make_bucket(np.arange(50))
    b = make_bucket(np.arange(50))
    ra, rb = np.random.default_rng(4), np.random.default_rng(4)
    assert a.draw_random(ra, 20).tolist() == b.draw_random(rb, 20).tolist()


def test_example2_release(example2):
    release = bl.generalize(example2, 2.0, seed=7)
    assert sorted(ec.size for ec in release.ecs) == [4, 5, 10]
    part = bl.dp_partition(example2, 2.0)
    spans = [(b.lo, b.hi) for b in part.buckets]
    draws = []
    for ec in release.ecs:
        per_bucket = [
            int(sum(ec.sa_counts[lo : hi + 1])) for lo, hi in spans
        ]
        draws.append(per_bucket)
    assert draws == [[1, 1, 2], [1, 2, 2], [3, 3, 4]]


def test_release_partitions_table(example2):
    release = bl.generalize(example2, 2.0, seed=0)
    rows = np.sort(np.concatenate([ec.rows for ec in release.ecs]))
    assert (rows == np.arange(example2.n_rows)).all()
    assert release.n_rows == example2.n_rows


def test_every_class_passes_the_independent_check(example2):
    dist = bl.sa_distribution(example2)
    for seed in range(5):
        release = bl.generalize(example2, 2.0, seed=seed)
        for ec in release.ecs:
            assert bl.check_enhanced(dist, ec.sa_counts, 2.0)


def test_generalize_deterministic(example2):
    a = release_to_obj(bl.generalize(example2, 2.0, seed=3, curve_order=12))
    b = release_to_obj(bl.generalize(example2, 2.0, seed=3, curve_order=12))
    assert json.dumps(a) == json.dumps(b)
    c = release_to_obj(bl.generalize(example2, 2.0, seed=4, curve_order=12))
    assert json.dumps(a) != json.dumps(c)


def test_numeric_extents_are_attained(example2):
    release = bl.generalize(example2, 2.0, seed=1)
    for ec in release.ecs:
        for k, attr in enumerate(release.schema.qi_attributes):
            col = example2.qi_columns[k][ec.rows]
            assert ec.extents[k].lo == col.min()
            assert ec.extents[k].hi == col.max()


def test_unknown_retrieval_mode(example2):
    with pytest.raises(bl.DataError, match="retrieval"):
        bl.generalize(example2, 2.0, retrieval="nearest")


def test_curve_locality_beats_random_on_average():
    table = bl.generate_synthetic(4000, 50, seed=10, sa_freqs=bl.census_like_profile(50))
    hilbert, random = [], []
    for seed in range(20):
        hilbert.append(bl.ail(bl.generalize(table, 4.0, seed=seed)))
        random.append(bl.ail(bl.generalize(table, 4.0, seed=seed, retrieval="random")))
    assert np.mean(hilbert) <= np.mean(random)


def test_draw_nearest_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        keys = rng.integers(0, 200, size=n).astype(np.int64)
        bucket = make_bucket(keys)
        anchor = int(rng.integers(-20, 220))
        count = int(rng.integers(1, n + 1))
        got = np.sort(keys[bucket.draw_nearest(anchor, count)])
        want = np.sort(np.asarray(
            sorted(keys.tolist(), key=lambda k: (abs(k - anchor), k))[:count]
        ))
        assert got.tolist() == want.tolist()


def test_single_sa_value_degenerates_to_singletons():
    schema = bl.DatasetSchema((
        bl.Attribute("x", "qi", "numeric", lo=0, hi=100),
        bl.Attribute("s", "sa"),
    ))
    rows = [{"x": i * 7 % 100, "s": "only"} for i in range(9)]
    t = bl.table_from_rows(schema, rows)
    release = bl.generalize(t, 1.0, seed=0)
    # One value at frequency 1 means every class trivially mirrors the table,
    # so splitting bottoms out at single rows and loss is zero.
    assert all(ec.size == 1 for ec in release.ecs)
    assert bl.ail(release) == 0.0
    assert bl.achieved_beta(release) == 0.0


def test_randomized_end_to_end(tmp_path):
    rng = np.random.default_rng(1234)
    leaf_pool = [f"c{i}" for i in range(12)]
    for trial in range(15):
        d = int(rng.integers(1, 5))
        attrs = []
        for k in range(d):
            if rng.random() < 0.4:
                n_leaves = int(rng.integers(2, 9))
                h = bl.Hierarchy.balanced(leaf_pool[:n_leaves], fanout=3)
                attrs.append(bl.Attribute(f"q{k}", "qi", "categorical", hierarchy=h))
            else:
                lo = float(rng.integers(0, 50))
                attrs.append(bl.Attribute(f"q{k}", "qi", "numeric", lo=lo, hi=lo + float(rng.integers(5, 200))))
        schema = bl.DatasetSchema(tuple(attrs) + (bl.Attribute("s", "sa"),))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 400))
        rows = []
        for _ in range(n):
            row = {"s": f"v{rng.integers(m)}"}
            for attr in attrs:
                if attr.kind == "numeric":
                    row[attr.name] = float(rng.uniform(attr.lo, attr.hi))
                else:
                    row[attr.name] = attr.hierarchy.leaves[int(rng.integers(attr.hierarchy.n_leaves))]
            rows.append(row)
        table = bl.table_from_rows(schema, rows)
        dist = bl.sa_distribution(table)
        beta = float(rng.uniform(0.3, 5.0))
        mode = "hilbert" if rng.random() < 0.7 else "random"
        release = bl.generalize(table, beta, seed=trial, curve_order=int(rng.choice([4, 16])), retrieval=mode)

        got = np.sort(np.concatenate([ec.rows for ec in release.ecs]))
        assert (got == np.arange(n)).all()
        for ec in release.ecs:
            assert bl.check_enhanced(dist, ec.sa_counts, beta)
        assert 0.0 <= bl.ail(release) <= 1.0
        path = tmp_path / f"r{trial}.json"
        bl.save_release(release, path)
        assert bl.achieved_beta(bl.load_release(path, schema)) == bl.achieved_beta(release)


def test_wide_keys_still_work(example2):
    # 2 QI dimensions at order 31 exceeds the packed-key width budget of 63
    # bits only with d >= 3; use a 3-attribute table.
    schema = bl.DatasetSchema((
        bl.Attribute("a", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("b", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("c", "qi", "numeric", lo=0, hi=1),
        bl.Attribute("s", "sa"),
    ))
    rng = np.random.default_rng(0)
    rows = [
        {"a": rng.random(), "b": rng.random(), "c": rng.random(), "s": f"v{i % 4}"}
        for i in range(40)
    ]
    t = bl.table_from_rows(schema, rows)
    release = bl.generalize(t, 2.0, seed=1, curve_order=31)
    got = np.sort(np.concatenate([ec.rows for ec in release.ecs]))
    assert (got == np.arange(40)).all()
