from __future__ import annotations

import bisect
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betalike as bl
from betalike.data import NUMERIC, QI, Attribute
from betalike.hilbert import quantize_table

from conftest import balanced_hierarchy, mixed_qi_tables, release_to_obj


class ReferenceBucket:
    """The per-record store that `SortedBucket` replaced, kept as its oracle.

    One linked-list node, "first live slot >= i" pointer and swap-remove
    position per record; every take updates them all.
    """

    def __init__(self, keys: np.ndarray, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        order = np.lexsort((rows, keys))
        self._keys = keys[order].tolist()
        self._rows = rows[order].tolist()
        self._n = n
        self._head = n
        self._tail = n + 1
        self._prv = [i - 1 for i in range(n)] + [self._head, n - 1]
        if n > 0:
            self._prv[0] = self._head
        self._nxt = [i + 1 for i in range(n)] + [0 if n > 0 else self._tail, self._tail]
        if n > 0:
            self._nxt[n - 1] = self._tail
        self._ceil = list(range(n + 1))
        self._alive = list(range(n))
        self._slot = list(range(n))

    def __len__(self) -> int:
        return len(self._alive)

    def _find_ceil(self, i: int) -> int:
        root = i
        while self._ceil[root] != root:
            root = self._ceil[root]
        while self._ceil[i] != root:
            self._ceil[i], i = root, self._ceil[i]
        return root

    def _take(self, i: int) -> int:
        p, nx = self._prv[i], self._nxt[i]
        self._nxt[p] = nx
        self._prv[nx] = p
        self._ceil[i] = i + 1
        j = self._slot[i]
        last = self._alive[-1]
        self._alive[j] = last
        self._slot[last] = j
        self._alive.pop()
        return self._rows[i]

    def peek_random(self, rng: np.random.Generator) -> tuple[int, int]:
        i = self._alive[int(rng.integers(len(self._alive)))]
        return self._rows[i], self._keys[i]

    def draw_nearest(self, anchor_key: int, count: int) -> np.ndarray:
        if count > len(self._alive):
            raise bl.DataError(f"cannot draw {count} of {len(self._alive)} remaining records")
        out = np.empty(count, dtype=np.int64)
        if count == 0:
            return out
        anchor_key = int(anchor_key)
        pos = bisect.bisect_left(self._keys, anchor_key)
        c = self._find_ceil(pos) if pos < self._n else self._n
        if c < self._n:
            right = c
            left = self._prv[c]
        else:
            right = self._tail
            left = self._prv[self._tail]
        for k in range(count):
            have_left = left != self._head
            have_right = right != self._tail
            if have_left and (
                not have_right or anchor_key - self._keys[left] <= self._keys[right] - anchor_key
            ):
                step = self._prv[left]
                out[k] = self._take(left)
                left = step
            else:
                step = self._nxt[right]
                out[k] = self._take(right)
                right = step
        return out


def make_bucket(keys, rows=None):
    """A `SortedBucket` over rows with the given curve keys: the rows in
    ascending order, each coded into the distinct keys."""
    keys = np.asarray(keys)
    rows = np.arange(len(keys)) if rows is None else np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    distinct, codes = np.unique(keys[order], return_inverse=True)
    return bl.SortedBucket(distinct, codes, rows[order])


def draw_rows(bucket, anchor_key, count) -> list[int]:
    """The rows one nearest draw takes, read back from `taken`."""
    before = len(bucket.taken())
    assert bucket.draw_nearest([anchor_key], [count]) is None
    return bucket.taken()[before:].tolist()


def test_draw_nearest_two_sided():
    b = make_bucket([10, 20, 30, 40])
    assert sorted(draw_rows(b, 21, 2)) == [1, 2]      # keys 20 and 30


def test_draw_nearest_one_sided_below():
    b = make_bucket([10, 20, 30, 40])
    assert draw_rows(b, 3, 1) == [0]


def test_draw_whole_bucket():
    b = make_bucket([10, 20, 30, 40])
    assert sorted(draw_rows(b, 999, 4)) == [0, 1, 2, 3]
    assert len(b) == 0


def test_draw_consumes_across_calls():
    b = make_bucket([10, 20, 30, 40])
    first = draw_rows(b, 21, 2)
    second = draw_rows(b, 21, 2)
    assert sorted(first + second) == [0, 1, 2, 3]
    assert sorted(second) == [0, 3]
    assert b.taken().tolist() == first + second


def test_draw_overdraw_errors():
    b = make_bucket([10, 20])
    with pytest.raises(bl.DataError, match="cannot draw"):
        b.draw_nearest([0], [3])


def test_draw_negative_count_errors():
    b = make_bucket([10, 20, 30, 40])
    with pytest.raises(bl.DataError, match="cannot draw"):
        b.draw_nearest([5], [-1])
    # The bucket is untouched: every row can still be drawn, each once.
    assert len(b) == 4 and len(b.taken()) == 0
    assert sorted(draw_rows(b, 5, 4)) == [0, 1, 2, 3]


@pytest.mark.parametrize("counts", [[1, -1, 1], [2, 2, 1], [0, 0, 5], [4, 1, -1]])
def test_bad_batch_errors_before_any_draw(counts):
    b = make_bucket([10, 20, 30, 40])
    b.draw_nearest([0], [1])
    with pytest.raises(bl.DataError, match="cannot draw"):
        b.draw_nearest([5, 25, 45], counts)
    # Only the first draw happened; the bad batch's first draws did not.
    assert len(b) == 3 and b.taken().tolist() == [0]
    assert draw_rows(b, 45, 3) == [3, 2, 1]


def test_batch_needs_one_anchor_per_count():
    b = make_bucket([10, 20, 30, 40])
    with pytest.raises(ValueError, match="2 anchors for 1 counts"):
        b.draw_nearest([5, 25], [1])
    assert len(b) == 4 and len(b.taken()) == 0


def test_batch_draws_as_its_draws_in_turn():
    keys = [10, 10, 20, 30, 30, 30, 40, 50]
    anchors, counts = [31, 12, 12, 99, 0], [2, 0, 3, 1, 2]
    one = make_bucket(keys)
    one.draw_nearest(anchors, counts)
    each = make_bucket(keys)
    for anchor, count in zip(anchors, counts):
        draw_rows(each, anchor, count)
    assert one.taken().tolist() == each.taken().tolist() == [5, 4, 1, 0, 2, 7, 3, 6]
    assert len(one) == len(each) == 0


def test_equal_keys_keep_row_order():
    b = make_bucket([5, 5, 5], rows=[30, 10, 20])
    assert draw_rows(b, 5, 2) == [10, 20]


def test_tie_prefers_lower_key():
    b = make_bucket([10, 30])
    assert draw_rows(b, 20, 1) == [0]


def test_taken_before_any_draw_is_empty():
    for b in (make_bucket([]), make_bucket([7, 7])):
        taken = b.taken()
        assert taken.dtype == np.int64 and taken.tolist() == []
    b = make_bucket([7, 7])
    b.draw_nearest([7], [0])
    b.draw_nearest([], [])
    assert b.taken().tolist() == []


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
            assert ec.extents[k] == (col.min(), col.max())


def test_draw_nearest_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        keys = rng.integers(0, 200, size=n).astype(np.int64)
        anchor = int(rng.integers(-20, 220))
        count = int(rng.integers(1, n + 1))
        want = sorted(keys.tolist(), key=lambda k: (abs(k - anchor), k))[:count]
        rows = np.arange(n)
        got = [draw_rows(make_bucket(keys), anchor, count),
               ReferenceBucket(keys, rows).draw_nearest(anchor, count).tolist()]
        for taken in got:
            assert sorted(keys[taken].tolist()) == sorted(want)


@st.composite
def bucket_scripts(draw):
    """Keys with long equal-key runs (uint64, or Python ints past 64 bits),
    distinct rows in random order, and a seeded script of peeks and
    nearest draws."""
    n = draw(st.integers(0, 60))
    base = draw(st.sampled_from([0, 2**40, 2**70]))
    pool = sorted(draw(st.sets(st.integers(0, 50), min_size=1, max_size=6)))
    keys = [base + draw(st.sampled_from(pool)) for _ in range(n)]
    keys = np.asarray(keys, dtype=object if base >= 2**64 else np.uint64)
    rows = np.asarray(draw(st.permutations(range(100, 100 + n))), dtype=np.int64)
    anchors = st.one_of(
        st.sampled_from([base + k + d for k in pool for d in (-1, 0, 1)]),  # on and beside run boundaries
        st.just(base - 5),                                                  # below the first key
        st.just(base + 60),                                                 # above the last key
        st.just("peeked"),                                                  # the last peeked key
    )
    script = draw(st.lists(st.one_of(
        st.tuples(st.just("peek")),
        st.tuples(st.just("nearest"), anchors, st.floats(0, 1)),
    ), max_size=20))
    return keys, rows, script, draw(st.integers(0, 2**16))


@given(bucket_scripts())
@settings(max_examples=300, deadline=None)
def test_run_buckets_match_the_per_record_reference(case):
    """Each run of consecutive nearest draws goes to `SortedBucket` as one
    batch, and to the reference one draw at a time."""
    keys, rows, script, seed = case
    new, ref = make_bucket(keys, rows), ReferenceBucket(keys, rows)
    rng = np.random.default_rng(seed)
    peeked = int(keys[0]) if len(keys) else 0
    drawn = []
    batch = ([], [])
    for op in [*script, ("peek",)]:
        if op[0] == "nearest":
            anchor = peeked if op[1] == "peeked" else op[1]
            count = int(op[2] * len(ref))
            drawn += ref.draw_nearest(anchor, count).tolist()
            batch[0].append(anchor)
            batch[1].append(count)
            continue
        before = len(new.taken())
        assert new.draw_nearest(*batch) is None
        assert new.taken()[before:].tolist() == drawn[before:]
        batch = ([], [])
        assert len(new) == len(ref)
        if len(ref) == 0:
            continue
        # Every live position, in the reference's swap-remove order.
        assert [new.peek(i) for i in range(len(new))] == [(ref._rows[j], ref._keys[j]) for j in ref._alive]
        peeked = new.peek(int(rng.integers(len(new))))[1]
    assert new.taken().tolist() == drawn


def reference_members(table, beta, seed, order) -> list[int]:
    """The member rows `generalize` publishes, class after class: each
    class's draws from its buckets in bucket order, drawn from per-record
    stores over per-row curve keys."""
    _, inverse = table.qi_tuples
    keys = bl.hilbert_indices(quantize_table(table, order), order)[inverse]
    partition = bl.dp_partition(table, beta)
    stores = [ReferenceBucket(keys[b.rows], b.rows) for b in partition.buckets]
    rng = np.random.default_rng(seed)
    members = []
    for alloc in bl.bi_split(partition).tolist():
        _, anchor_key = stores[alloc.index(max(alloc))].peek_random(rng)
        for store, a in zip(stores, alloc):
            if a > 0:
                members += store.draw_nearest(anchor_key, a).tolist()
    return members


@given(mixed_qi_tables(sa_values=("a", "b", "c", "d", "e")), st.floats(0.3, 5.0),
       st.integers(0, 2**16), st.sampled_from([2, 4, 16, 22]))
@settings(max_examples=150, deadline=None)
def test_members_are_each_class_draws_in_order(table, beta, seed, order):
    release = bl.generalize(table, beta, seed=seed, curve_order=order)
    members = np.concatenate([ec.rows for ec in release.ecs]).tolist()
    assert members == reference_members(table, beta, seed, order)


@pytest.mark.parametrize("seed", [0, 17])
def test_one_integers_call_draws_the_per_call_sequence(seed):
    # `generalize` draws every anchor position in one call; the classes'
    # anchors equal per-class draws only while numpy's bounded integers
    # give this.
    bounds = [1, 2, 2**31, 2**32 + 5, 3, 1, 2**32, 2**32 - 1, 1, 7, 2**40, 2] * 20
    one = np.random.default_rng(seed).integers(np.asarray(bounds, dtype=np.int64)).tolist()
    rng = np.random.default_rng(seed)
    assert one == [int(rng.integers(n)) for n in bounds]


def test_generalize_draws_through_the_class(example2, monkeypatch):
    # Tracers that time retrieval wrap these methods on the class.
    calls = {"draw_nearest": 0, "peek": 0}
    for name in calls:
        method = getattr(bl.SortedBucket, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(bl.SortedBucket, name, counted)
    release = bl.generalize(example2, 2.0, seed=7)
    assert calls["peek"] == len(release.ecs)
    assert calls["draw_nearest"] >= len(bl.dp_partition(example2, 2.0).buckets)


def _golden_tables():
    census = bl.generate_synthetic(20_000, 50, seed=11, sa_freqs=bl.census_like_profile(50))
    zip_spec = bl.default_qi_spec() + (Attribute("zip", QI, NUMERIC, lo=0, hi=99999),)
    zips = bl.generate_synthetic(5_000, 50, seed=12, sa_freqs=bl.census_like_profile(50), qi_spec=zip_spec)
    return {"census": census, "zip": zips}


# sha256 of the `save_release` bytes and of the classes' row order (int64,
# little-endian, class after class) for beta 4 and seeds 1-3. The census
# table's 20k rows share about 2.7k curve keys, so retrieval takes long
# equal-key runs; the zip table's keys are all distinct.
GOLDEN_RELEASES = {
    ("census", 1): ("3228b5f7159a4f9ed5a5966b5b178936f098b426014421b76b5290a0e0383ea9",
                    "2d30eb12228cbcbd346c28c4de77d2bc24a51d25ee00bdc1334edd880fb3ce74"),
    ("census", 2): ("9a396d3241f39036982c0a01e4d2a8fce0674d1752430179feb0aa465c1c2df5",
                    "b7dfbc1207daae698307e04d96627b15413d9ad67a3deeed11966eff5846a1ae"),
    ("census", 3): ("47d75327405d66f3f93b33e795e37a3932ca5466b2e5605c8a7c8f754cd91071",
                    "bcdd033e2d7e36e997b599adcc1746078c902c9b1837653bbc1b9b068d061686"),
    ("zip", 1): ("5adfb9fa4449b5256984624506f5744770149ee0469519a432f28b5e697dff7a",
                 "2e2075182039976a5d837dda5cd5d0b8dec09eb20e651c57ee2376108af8bfe7"),
    ("zip", 2): ("6e0854749a18ddb0a47c88c157d781178f9b5856fdae42b55347a01187ff8076",
                 "3255b1a1490c0a84a017162eddfe0b991ef4768350f36429fa42c0e6f01300d8"),
    ("zip", 3): ("592c84c9472e45ee652565e03a550bae0cd0253bcd43514fc15a521033aadbe9",
                 "da7cec8c025c4f540d352837d0e2e08e2e6d802dc4f8d2e91d5bcbc06d79fa7b"),
}


def test_golden_releases(tmp_path):
    tables = _golden_tables()
    got = {}
    for name, seed in GOLDEN_RELEASES:
        release = bl.generalize(tables[name], 4.0, seed=seed)
        path = tmp_path / f"{name}-{seed}.json"
        bl.save_release(release, path)
        rows = np.concatenate([ec.rows for ec in release.ecs]).astype("<i8")
        got[name, seed] = (hashlib.sha256(path.read_bytes()).hexdigest(),
                           hashlib.sha256(rows.tobytes()).hexdigest())
    assert got == GOLDEN_RELEASES


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
                h = balanced_hierarchy(leaf_pool[:n_leaves], fanout=3)
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
        release = bl.generalize(table, beta, seed=trial, curve_order=int(rng.choice([4, 16])))

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
