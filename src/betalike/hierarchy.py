"""Generalization hierarchies for categorical attributes.

A hierarchy is a rooted tree whose leaves are the attribute's concrete domain
values. The pre-order traversal of the leaves defines the canonical axis used
for curve mapping, range predicates, and lowest-common-ancestor recoding.
"""
from __future__ import annotations

from dataclasses import dataclass


class HierarchyError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    """Tree node covering the contiguous leaf-index span [leaf_lo, leaf_hi]."""

    label: str
    leaf_lo: int
    leaf_hi: int
    children: tuple["Node", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Hierarchy:
    """Rooted tree over a categorical domain.

    Built from a JSON-compatible spec: a leaf is a plain string, an internal
    node is ``{"name": <label>, "children": [<spec>, ...]}``. A bare string is
    accepted as a single-leaf hierarchy.
    """

    def __init__(self, spec) -> None:
        leaves: list[str] = []
        self.root = self._build(spec, leaves)
        self.leaves: tuple[str, ...] = tuple(leaves)
        self._index: dict[str, int] = {}
        for i, value in enumerate(leaves):
            if value in self._index:
                raise HierarchyError(f"duplicate leaf value {value!r}")
            self._index[value] = i

    @staticmethod
    def _build(spec, leaves: list[str]) -> Node:
        """The node for `spec`; its leaves are appended to `leaves` in pre-order."""
        if isinstance(spec, str):
            leaves.append(spec)
            return Node(spec, len(leaves) - 1, len(leaves) - 1)
        if isinstance(spec, dict):
            try:
                label, children = spec["name"], spec["children"]
            except KeyError as exc:
                raise HierarchyError(f"hierarchy node missing key {exc}") from exc
            if not isinstance(label, str) or not isinstance(children, list) or not children:
                raise HierarchyError("internal node needs a name and a non-empty list of children")
            kids = tuple(Hierarchy._build(c, leaves) for c in children)
            return Node(label, kids[0].leaf_lo, kids[-1].leaf_hi, kids)
        raise HierarchyError(f"bad hierarchy node: {spec!r}")

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def leaf_index(self, value: str) -> int:
        """Rank of `value` in the pre-order leaf traversal (0-based)."""
        try:
            return self._index[value]
        except KeyError:
            raise HierarchyError(f"{value!r} is not a leaf of this hierarchy") from None

    def lca(self, leaf_lo: int, leaf_hi: int) -> Node:
        """Deepest node whose leaf span covers [leaf_lo, leaf_hi]."""
        if not 0 <= leaf_lo <= leaf_hi < self.n_leaves:
            raise HierarchyError(f"leaf span [{leaf_lo}, {leaf_hi}] out of range")
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.leaf_lo <= leaf_lo and leaf_hi <= child.leaf_hi:
                    node = child
                    break
            else:
                break
        return node

    def to_spec(self):
        def render(node: Node):
            if node.is_leaf:
                return node.label
            return {"name": node.label, "children": [render(c) for c in node.children]}

        return render(self.root)
