"""Published form of a generalized table.

Each equivalence class carries a generalized QI description (a closed range
per numeric attribute, the lowest common ancestor per categorical attribute)
plus its exact SA multiset. The overall SA distribution and the run
parameters are embedded so a release file is auditable on its own.
`load_release` rejects a file `generalize` could not have written: a
negative seed, a curve order `hilbert` would refuse, an extent outside the
schema domain or not a hierarchy node, or class counts that do not add up
to the distribution. A release is immutable, so the class arrays the
estimators and the audit read (`class_counts` and its `sa_prefix`,
`class_extents` and their distinct pairs, `distinct_extents`) are cached,
never invalidated. `build_ec` builds all classes in one batched pass, and
`save_release` writes the file's fixed layout from the class arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (NUMERIC, DataError, DatasetSchema, Table, _num, code_dtype, distribution_from_obj,
                   json_beta, json_field, read_json)
from .hierarchy import HierarchyError
from .hilbert import _check_order
from .likeness import Distribution


@dataclass(frozen=True)
class NumericExtent:
    lo: float
    hi: float


@dataclass(frozen=True)
class CategoricalExtent:
    """LCA node of the member leaves; the span is the node's full leaf range."""

    label: str
    leaf_lo: int
    leaf_hi: int


Extent = NumericExtent | CategoricalExtent


@dataclass(frozen=True, eq=False)
class EquivalenceClass:
    extents: tuple[Extent, ...]
    sa_counts: np.ndarray
    rows: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.sa_counts.sum())


@dataclass(frozen=True, eq=False)
class Release:
    schema: DatasetSchema
    dist: Distribution
    beta: float
    seed: int
    curve_order: int
    ecs: tuple[EquivalenceClass, ...]

    @property
    def n_rows(self) -> int:
        return int(self.class_counts.sum())

    @cached_property
    def class_counts(self) -> np.ndarray:
        """(classes, m) int64: each class's SA counts."""
        return np.asarray([ec.sa_counts for ec in self.ecs], dtype=np.int64).reshape(-1, self.dist.m)

    @cached_property
    def sa_prefix(self) -> np.ndarray:
        """(m + 1, classes) float64: row s holds each class's count of SA codes below s."""
        return np.vstack([np.zeros(len(self.class_counts)), np.cumsum(self.class_counts, axis=1).T])

    @cached_property
    def class_extents(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per QI attribute, float (lo, hi) over the classes; categorical: the leaf span."""
        out = []
        for k, attr in enumerate(self.schema.qi_attributes):
            keys = ("lo", "hi") if attr.kind == NUMERIC else ("leaf_lo", "leaf_hi")
            out.append(tuple(np.asarray([getattr(ec.extents[k], key) for ec in self.ecs], dtype=float)
                             for key in keys))
        return tuple(out)

    @cached_property
    def distinct_extents(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per QI attribute, (lo, hi, index): the distinct (lo, hi) pairs of
        `class_extents` and each class's index into them. Pairs compare by
        bit pattern, so gathering by `index` gives back each class's floats."""
        out = []
        for lo, hi in self.class_extents:
            bits = np.stack([lo, hi], axis=1).view(np.int64)
            pairs, index = np.unique(bits, axis=0, return_inverse=True)
            distinct_lo, distinct_hi = pairs.view(float).T.copy()
            out.append((distinct_lo, distinct_hi, index.reshape(-1)))
        return tuple(out)


def build_ec(table: Table, rows: np.ndarray, sizes) -> tuple[EquivalenceClass, ...]:
    """The classes whose members are consecutive runs of `rows`, the k-th
    `sizes[k]` long, with tight QI extents and SA counts: one `bincount` of
    class * m + SA code, `reduceat` over QI codes, ordered as `qi_values`, one
    `Hierarchy.lca` per distinct leaf span. Each class's rows are a slice of `rows`."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes <= 0).any():
        raise DataError("cannot generalize an empty class")
    if sizes.sum() != len(rows):
        raise DataError(f"class sizes add up to {sizes.sum()}, not to the {len(rows)} rows")
    n, m = len(sizes), table.m
    ends = np.cumsum(sizes)
    starts = ends - sizes
    dtype = code_dtype(n * m)
    key = table.sa_codes[rows].astype(dtype)
    key += np.repeat(np.arange(0, n * m, m, dtype=dtype), sizes)
    counts = np.bincount(key, minlength=n * m).reshape(n, m)
    columns = []
    for attr, values, codes in zip(table.schema.qi_attributes, table.qi_values, table.qi_codes):
        member = codes[rows]
        lo, hi = values[np.minimum.reduceat(member, starts)], values[np.maximum.reduceat(member, starts)]
        if attr.kind == NUMERIC:
            columns.append([NumericExtent(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        else:
            leaves = attr.hierarchy.n_leaves
            spans, index = np.unique(lo * leaves + hi, return_inverse=True)
            nodes = (attr.hierarchy.lca(*divmod(span, leaves)) for span in spans.tolist())
            extents = [CategoricalExtent(node.label, node.leaf_lo, node.leaf_hi) for node in nodes]
            columns.append([extents[i] for i in index.tolist()])
    return tuple(EquivalenceClass(extents, class_counts, rows[a:b])
                 for extents, class_counts, a, b in zip(zip(*columns), counts, starts.tolist(), ends.tolist()))


# ---------------------------------------------------------------------------
# Serialization

def _numbers(values: np.ndarray) -> list[str]:
    """Each value as JSON text, an integral one without a fraction (as
    `data._num` writes it); each distinct value is formatted once."""
    distinct, index = np.unique(values, return_inverse=True)
    texts = [json.dumps(_num(x)) for x in distinct.tolist()]
    return [texts[i] for i in index.tolist()]


def _block(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """Items laid out one level deeper, in a list or object at `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + " " * indent + brackets[1]


def save_release(release: Release, path) -> None:
    """Write the release as the JSON that `json.dumps(..., indent=1)` makes
    of it, laid out here from the class arrays: `json.dumps` encodes the
    header, the strings and each distinct number, and every class is one
    template filled in."""
    dist = release.dist
    header = {
        "kind": "generalized-release",
        "beta": release.beta,
        "seed": release.seed,
        "curve_order": release.curve_order,
        "qi": [a.name for a in release.schema.qi_attributes],
        "sa": {"attribute": release.schema.sa_attribute.name, "values": list(dist.values),
               "counts": list(dist.counts), "total": dist.total},
    }
    extents = []
    for k, attr in enumerate(release.schema.qi_attributes):
        lo, hi = (_numbers(v) for v in release.class_extents[k])
        if attr.kind == NUMERIC:
            extents.append([f'    {{\n     "lo": {a},\n     "hi": {b}\n    }}' for a, b in zip(lo, hi)])
        else:
            labels = [ec.extents[k].label for ec in release.ecs]
            encoded = {label: json.dumps(label) for label in set(labels)}
            extents.append([f'    {{\n     "label": {encoded[label]},\n     "leaf_lo": {a},\n'
                            f'     "leaf_hi": {b}\n    }}' for label, a, b in zip(labels, lo, hi)])
    counts = release.class_counts
    cls, value = np.nonzero(counts > 0)
    keys = [f"    {json.dumps(v)}: " for v in dist.values]
    sa = [keys[j] + str(c) for j, c in zip(value.tolist(), counts[cls, value].tolist())]
    bounds = np.searchsorted(cls, np.arange(len(counts) + 1)).tolist()
    classes = [f'  {{\n   "size": {size},\n   "extents": {_block(ext, 3)},\n'
               f'   "sa": {_block(sa[a:b], 3, "{}")}\n  }}'
               for size, ext, a, b in zip(counts.sum(axis=1).tolist(), zip(*extents), bounds, bounds[1:])]
    # The header's closing "\n}" gives way to the classes.
    text = json.dumps(header, indent=1)[:-2] + f',\n "classes": {_block(classes, 1)}\n}}\n'
    Path(path).write_text(text, encoding="utf-8")


def load_release(path, schema: DatasetSchema) -> Release:
    """Read a release file back into an auditable object (no member rows)."""
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "generalized-release":
        raise DataError(f"{path}: not a generalized release file")
    dist = distribution_from_obj(json_field(obj, "sa", dict, path), f"{path}: sa")
    if [a.name for a in schema.qi_attributes] != json_field(obj, "qi", list, path, items=str):
        raise DataError(f"{path}: QI attributes do not match the schema")
    beta = json_beta(obj, path)
    seed = json_field(obj, "seed", int, path)
    if seed < 0:
        raise DataError(f"{path}: field 'seed' must be >= 0, got {seed}")
    curve_order = json_field(obj, "curve_order", int, path)
    try:
        _check_order(curve_order)
    except DataError as exc:
        raise DataError(f"{path}: field 'curve_order': {exc}") from None
    index = {v: i for i, v in enumerate(dist.values)}
    ecs = []
    for k, cls in enumerate(json_field(obj, "classes", list, path, items=dict)):
        where = f"{path}: classes[{k}]"
        raw_extents = json_field(cls, "extents", list, where, items=dict)
        if len(raw_extents) != len(schema.qi_attributes):
            raise DataError(f"{where}: needs one extent per QI attribute")
        extents: list[Extent] = []
        for attr, ext in zip(schema.qi_attributes, raw_extents):
            at = f"{where}: extent {attr.name}"
            if attr.kind == NUMERIC:
                lo, hi = (json_field(ext, key, (int, float), at) for key in ("lo", "hi"))
                # Compared before any float conversion, which a huge JSON integer overflows.
                if not (attr.lo <= lo <= hi <= attr.hi and math.isfinite(lo) and math.isfinite(hi)):
                    raise DataError(f"{at}: needs finite {attr.lo:g} <= lo <= hi <= {attr.hi:g}, "
                                    f"got lo={lo!r}, hi={hi!r}")
                extents.append(NumericExtent(float(lo), float(hi)))
            else:
                fields = (("label", str), ("leaf_lo", int), ("leaf_hi", int))
                extent = CategoricalExtent(*(json_field(ext, key, kind, at) for key, kind in fields))
                try:
                    node = attr.hierarchy.lca(extent.leaf_lo, extent.leaf_hi)
                except HierarchyError as exc:
                    raise DataError(f"{at}: {exc}") from None
                if extent != CategoricalExtent(node.label, node.leaf_lo, node.leaf_hi):
                    raise DataError(f"{at}: label {extent.label!r} with leaves [{extent.leaf_lo}, "
                                    f"{extent.leaf_hi}] is not the hierarchy node {node.label!r} "
                                    f"[{node.leaf_lo}, {node.leaf_hi}] covering them")
                extents.append(extent)
        counts = np.zeros(dist.m, dtype=np.int64)
        for value, c in json_field(cls, "sa", dict, where).items():
            if value not in index:
                raise DataError(f"{where}: unknown SA value {value!r}")
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= dist.total:
                raise DataError(f"{where}: count of {value!r} must be an integer from 0 to {dist.total}")
            counts[index[value]] = c
        if counts.sum() != json_field(cls, "size", int, where):
            raise DataError(f"{where}: class size does not match its SA counts")
        ecs.append(EquivalenceClass(tuple(extents), counts, None))
    release = Release(schema, dist, beta, seed, curve_order, tuple(ecs))
    for value, total, expected in zip(dist.values, release.class_counts.sum(axis=0), dist.counts):
        if total != expected:
            raise DataError(f"{path}: field 'classes': counts of {value!r} sum to {total}, "
                            f"but 'sa' field 'counts' gives {expected}")
    return release
