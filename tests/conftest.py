from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

import betalike as bl
from betalike.data import NUMERIC, _num, code_dtype
from betalike.likeness import Bound

DISEASES = [
    ("headache", 2),
    ("epilepsy", 3),
    ("brain tumors", 3),
    ("anemia", 3),
    ("angina", 4),
    ("heart murmur", 4),
]

DISEASE_HIERARCHY = {
    "name": "any illness",
    "children": [
        {"name": "nervous", "children": ["headache", "epilepsy", "brain tumors"]},
        {"name": "circulatory", "children": ["heart murmur", "angina"]},
        {"name": "blood", "children": ["anemia"]},
    ],
}


def patient_schema() -> bl.DatasetSchema:
    return bl.DatasetSchema(
        (
            bl.Attribute("weight", "qi", "numeric", lo=40, hi=90),
            bl.Attribute("age", "qi", "numeric", lo=20, hi=80),
            bl.Attribute("disease", "sa"),
        )
    )


def disease_table(counts=DISEASES, seed: int = 3) -> bl.Table:
    """Nineteen patient rows with the disease counts 2,3,3,3,4,4."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, c in counts:
        for _ in range(c):
            rows.append(
                {
                    "weight": int(rng.integers(40, 91)),
                    "age": int(rng.integers(20, 81)),
                    "disease": name,
                }
            )
    return bl.table_from_rows(patient_schema(), rows)


def table1() -> bl.Table:
    """The six-patient table: one disease each, fixed QI values."""
    rows = [
        {"weight": 70, "age": 40, "disease": "headache"},
        {"weight": 60, "age": 60, "disease": "epilepsy"},
        {"weight": 50, "age": 50, "disease": "brain tumors"},
        {"weight": 70, "age": 50, "disease": "heart murmur"},
        {"weight": 80, "age": 50, "disease": "anemia"},
        {"weight": 60, "age": 70, "disease": "angina"},
    ]
    return bl.table_from_rows(patient_schema(), rows)


def table_from_qi_columns(schema: bl.DatasetSchema, columns, sa_codes, sa_values) -> bl.Table:
    """A table given its QI columns row by row (floats, or leaf indices for
    a categorical axis): each column's sorted distinct values and codes
    from one `np.unique`, and every code in the narrowest unsigned dtype."""
    qi = [np.unique(col, return_inverse=True) for col in columns]
    return bl.Table(schema, tuple(values for values, _ in qi),
                    tuple(codes.astype(code_dtype(len(values))) for values, codes in qi),
                    np.asarray(sa_codes).astype(code_dtype(len(sa_values))), tuple(sa_values))


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def balanced_hierarchy(values: list[str], fanout: int, root_label: str = "any") -> bl.Hierarchy:
    """Single-level grouping of `values` into runs of `fanout` leaves, or
    the values directly under the root when they fit in one run."""
    if len(values) <= fanout:
        return bl.Hierarchy({"name": root_label, "children": list(values)})
    return bl.Hierarchy({"name": root_label, "children": [
        {"name": f"{root_label}.{i // fanout}", "children": list(values[i : i + fanout])}
        for i in range(0, len(values), fanout)
    ]})


@pytest.fixture(scope="session")
def example2():
    return disease_table()


@pytest.fixture(scope="session")
def census_table():
    return bl.generate_synthetic(100_000, 50, seed=0, sa_freqs=bl.census_like_profile(50))


@pytest.fixture(scope="session")
def census_release_b4(census_table):
    return bl.generalize(census_table, 4.0, seed=1)


@st.composite
def mixed_qi_tables(draw, n_qi=None, sa_values=("x",)):
    """Tables over numeric and categorical QI axes whose rows repeat a few
    distinct QI tuples; numeric values include negative, zero and
    fractional ones. `n_qi` fixes the number of QI axes (1 to 4 if None);
    each row's SA value is drawn from `sa_values`."""
    n_qi = n_qi or draw(st.integers(1, 4))
    attrs, values = [], []
    for k in range(n_qi):
        if draw(st.booleans()):
            attrs.append(bl.Attribute(f"n{k}", "qi", "numeric", lo=-4, hi=9))
            values.append(st.sampled_from([-4, -1.5, 0, 0.25, 3, 9]))
        else:
            leaves = [f"c{k}.{i}" for i in range(draw(st.integers(2, 6)))]
            attrs.append(bl.Attribute(f"c{k}", "qi", hierarchy=balanced_hierarchy(leaves, fanout=2)))
            values.append(st.sampled_from(leaves))
    schema = bl.DatasetSchema((*attrs, bl.Attribute("s", "sa")))
    distinct = draw(st.lists(st.tuples(*values), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    sa = [draw(st.sampled_from(sa_values)) for _ in rows] if len(sa_values) > 1 else sa_values * len(rows)
    return bl.table_from_rows(
        schema, [{**{a.name: v for a, v in zip(attrs, row)}, "s": s} for row, s in zip(rows, sa)]
    )


def combinable(d: bl.Distribution, b: int, e: int, beta: float) -> bool:
    """Can values b..e (0-based, inclusive) share a bucket? Their combined
    mass must stay strictly below the bound of value b, the rarest of the
    run: the per-run check `partition_spans` makes, kept as its oracle."""
    return Bound(d, beta).at([b]).admits([sum(d.counts[b : e + 1])], d.total, strict=True)


def brute_force_min_buckets(d: bl.Distribution, beta: float) -> int:
    """The fewest contiguous runs of combinable values that cover the
    domain, by trying every set of cuts: the oracle of `partition_spans`."""
    m = d.m
    comb = {(b, e): combinable(d, b, e, beta) for b in range(m) for e in range(b, m)}
    best = m
    for cuts in itertools.product((False, True), repeat=m - 1):
        start, ok, n_buckets = 0, True, 0
        for e in range(m):
            if e == m - 1 or cuts[e]:
                if not comb[start, e]:
                    ok = False
                    break
                n_buckets += 1
                start = e + 1
        if ok:
            best = min(best, n_buckets)
    return best


def release_to_obj(release: bl.Release) -> dict:
    """The release as the object whose `json.dumps(..., indent=1)` text
    `save_release` writes, built class by class: the oracle of its bytes."""
    classes = []
    for ec in release.ecs:
        extents = []
        for attr, (lo, hi) in zip(release.schema.qi_attributes, ec.extents):
            if attr.kind == NUMERIC:
                extents.append({"lo": _num(lo), "hi": _num(hi)})
            else:
                node = attr.hierarchy.lca(int(lo), int(hi))
                extents.append({"label": node.label, "leaf_lo": node.leaf_lo, "leaf_hi": node.leaf_hi})
        sa = {
            release.dist.values[i]: int(c)
            for i, c in enumerate(ec.sa_counts)
            if c > 0
        }
        classes.append({"size": ec.size, "extents": extents, "sa": sa})
    return {
        "kind": "generalized-release",
        "beta": release.beta,
        "seed": release.seed,
        "curve_order": release.curve_order,
        "qi": [a.name for a in release.schema.qi_attributes],
        "sa": {
            "attribute": release.schema.sa_attribute.name,
            "values": list(release.dist.values),
            "counts": list(release.dist.counts),
            "total": release.dist.total,
        },
        "classes": classes,
    }
