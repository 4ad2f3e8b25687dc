from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from betalike import Hierarchy, HierarchyError

from conftest import DISEASE_HIERARCHY


def test_preorder_leaves():
    h = Hierarchy(DISEASE_HIERARCHY)
    assert h.leaves == ("headache", "epilepsy", "brain tumors", "heart murmur", "angina", "anemia")
    assert h.leaf_index("headache") == 0
    assert h.leaf_index("anemia") == 5


def test_first_leaf_is_zero():
    h = Hierarchy({"name": "r", "children": ["x", "y", "z"]})
    assert h.leaf_index("x") == 0


def test_single_leaf_hierarchy():
    h = Hierarchy("only")
    assert h.n_leaves == 1
    assert h.leaf_index("only") == 0
    assert h.root.is_leaf


def test_two_level_balanced_order():
    h = Hierarchy({"name": "r", "children": [
        {"name": "left", "children": ["a", "b"]},
        {"name": "right", "children": ["c", "d"]},
    ]})
    assert h.leaf_index("c") == 2


def test_unknown_leaf_errors():
    h = Hierarchy({"name": "r", "children": ["a", "b"]})
    with pytest.raises(HierarchyError, match="not a leaf"):
        h.leaf_index("r")


def test_duplicate_leaf_rejected():
    with pytest.raises(HierarchyError, match="duplicate"):
        Hierarchy({"name": "r", "children": ["a", "a"]})


def test_bad_specs_rejected():
    with pytest.raises(HierarchyError):
        Hierarchy({"name": "r", "children": []})
    with pytest.raises(HierarchyError):
        Hierarchy({"name": "r"})
    with pytest.raises(HierarchyError):
        Hierarchy(42)


def test_lca_spans():
    h = Hierarchy(DISEASE_HIERARCHY)
    nervous = h.lca(0, 2)
    assert nervous.label == "nervous" and (nervous.leaf_lo, nervous.leaf_hi) == (0, 2)
    # A span crossing groups resolves to the root.
    assert h.lca(1, 3).label == "any illness"
    # A single leaf resolves to the leaf itself.
    leaf = h.lca(4, 4)
    assert leaf.is_leaf and leaf.label == "angina"


def test_lca_out_of_range():
    h = Hierarchy(DISEASE_HIERARCHY)
    with pytest.raises(HierarchyError):
        h.lca(0, 6)


def test_spec_round_trip():
    h = Hierarchy(DISEASE_HIERARCHY)
    assert Hierarchy(h.to_spec()).leaves == h.leaves


@st.composite
def tree_specs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.uuids().map(str))
    kids = draw(st.lists(tree_specs(depth=depth + 1), min_size=1, max_size=4))
    return {"name": f"n{draw(st.integers(0, 99))}", "children": kids}


@given(tree_specs())
def test_leaf_index_is_a_bijection(spec):
    h = Hierarchy(spec)
    ranks = sorted(h.leaf_index(v) for v in h.leaves)
    assert ranks == list(range(h.n_leaves))
