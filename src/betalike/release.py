"""Published form of a generalized table.

Each equivalence class carries a generalized QI description, one float
(lo, hi) pair per QI attribute, plus its exact SA multiset. A numeric pair is
the closed range of the members; a categorical one is the leaf span of the
hierarchy node covering them, the lowest common ancestor, whose label exists
only in the file: `save_release` writes `Hierarchy.lca(lo, hi).label` and
`load_release` accepts no other. The overall SA distribution and the run
parameters are embedded so a release file is auditable on its own.
`load_release` rejects a file `generalize` could not have written: an SA
attribute the schema does not name, a negative seed, a curve order `hilbert`
would refuse, an extent outside the schema domain or not a hierarchy node,
an empty class, or class counts that do not add up to the distribution. A
release is immutable, so the class arrays the estimators and the audit read
(`class_counts` and its `sa_prefix`, `class_extents` and their distinct
pairs, `distinct_extents`) are cached, never invalidated. `build_ec` builds
all classes in one batched pass, and `save_release` writes the file's fixed
layout from the class arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (NUMERIC, DataError, DatasetSchema, Table, _num, code_dtype, distribution_from_obj,
                   distribution_to_obj, json_beta, json_field, json_seed, read_json)
from .hierarchy import HierarchyError
from .hilbert import _check_order
from .likeness import Distribution


@dataclass(frozen=True, eq=False)
class EquivalenceClass:
    extents: tuple[tuple[float, float], ...]
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
        shape = (len(self.ecs), len(self.schema.qi_attributes), 2)
        bounds = chain.from_iterable(chain.from_iterable(ec.extents for ec in self.ecs))
        pairs = np.fromiter(bounds, dtype=float, count=math.prod(shape)).reshape(shape)
        return tuple(tuple(axis) for axis in pairs.transpose(1, 2, 0).copy())

    @cached_property
    def distinct_extents(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per QI attribute, (lo, hi, index): the distinct (lo, hi) pairs of
        `class_extents` and each class's index into them. Pairs compare by
        bit pattern, so gathering by `index` gives back each class's floats.
        Each bound is coded among its own distinct bit patterns, and the
        pairs are the distinct lo code × hi count + hi code: three 1-D
        `unique` calls, several times faster than one over rows."""
        out = []
        for lo, hi in self.class_extents:
            (lo_bits, lo_codes), (hi_bits, hi_codes) = (np.unique(bound.view(np.int64), return_inverse=True)
                                                        for bound in (lo, hi))
            pairs, index = np.unique(lo_codes * len(hi_bits) + hi_codes, return_inverse=True)
            lo_code, hi_code = divmod(pairs, len(hi_bits))
            out.append((lo_bits[lo_code].view(float), hi_bits[hi_code].view(float), index))
        return tuple(out)


def build_ec(table: Table, rows: np.ndarray, sizes) -> tuple[EquivalenceClass, ...]:
    """The classes whose members are consecutive runs of `rows`, the k-th
    `sizes[k]` long, with tight QI extents and SA counts: one `bincount` of
    class * m + SA code, `reduceat` over QI codes, ordered as `qi_values`, and
    one `Hierarchy.lca` per distinct member leaf span, whose node span each
    class with that span takes. Each class's rows are a slice of `rows`."""
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
        if attr.kind != NUMERIC:
            leaves = attr.hierarchy.n_leaves
            spans, index = np.unique(lo * leaves + hi, return_inverse=True)
            nodes = [attr.hierarchy.lca(*divmod(span, leaves)) for span in spans.tolist()]
            lo, hi = np.asarray([(node.leaf_lo, node.leaf_hi) for node in nodes], dtype=float)[index].T
        columns.append(zip(lo.tolist(), hi.tolist()))
    return tuple(EquivalenceClass(extents, class_counts, rows[a:b])
                 for extents, class_counts, a, b in zip(zip(*columns), counts, starts.tolist(), ends.tolist()))


# ---------------------------------------------------------------------------
# Serialization

def _block(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """Items laid out one level deeper, in a list or object at `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + " " * indent + brackets[1]


def save_release(release: Release, path) -> None:
    """Write the release as the JSON that `json.dumps(..., indent=1)` makes
    of it, laid out here from the class arrays: `json.dumps` encodes the
    header and the SA values, each distinct extent is formatted once, and
    every class is one template filled in."""
    dist = release.dist
    header = {
        "kind": "generalized-release",
        "beta": release.beta,
        "seed": release.seed,
        "curve_order": release.curve_order,
        "qi": [a.name for a in release.schema.qi_attributes],
        "sa": distribution_to_obj(dist, release.schema),
    }
    extents = []
    for attr, (lo, hi, index) in zip(release.schema.qi_attributes, release.distinct_extents):
        pairs = zip(lo.tolist(), hi.tolist())
        if attr.kind == NUMERIC:
            texts = [f'    {{\n     "lo": {json.dumps(_num(a))},\n     "hi": {json.dumps(_num(b))}\n    }}'
                     for a, b in pairs]
        else:
            texts = [f'    {{\n     "label": {json.dumps(attr.hierarchy.lca(int(a), int(b)).label)},\n'
                     f'     "leaf_lo": {int(a)},\n     "leaf_hi": {int(b)}\n    }}' for a, b in pairs]
        extents.append([texts[i] for i in index.tolist()])
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
    sa = json_field(obj, "sa", dict, path)
    dist = distribution_from_obj(sa, f"{path}: sa", schema)
    if [a.name for a in schema.qi_attributes] != json_field(obj, "qi", list, path, items=str):
        raise DataError(f"{path}: QI attributes do not match the schema")
    beta = json_beta(obj, path)
    seed = json_seed(obj, path)
    curve_order = json_field(obj, "curve_order", int, path)
    try:
        _check_order(curve_order)
    except DataError as exc:
        raise DataError(f"{path}: field 'curve_order': {exc}") from None
    index = {v: i for i, v in enumerate(dist.values)}
    # Sizes and per-value sums are added as Python ints, which no file can wrap.
    totals = [0] * dist.m
    ecs = []
    for k, cls in enumerate(json_field(obj, "classes", list, path, items=dict)):
        where = f"{path}: classes[{k}]"
        raw_extents = json_field(cls, "extents", list, where, items=dict)
        if len(raw_extents) != len(schema.qi_attributes):
            raise DataError(f"{where}: needs one extent per QI attribute")
        extents = []
        for attr, ext in zip(schema.qi_attributes, raw_extents):
            at = f"{where}: extent {attr.name}"
            if attr.kind == NUMERIC:
                lo, hi = (json_field(ext, key, (int, float), at) for key in ("lo", "hi"))
                # Compared before any float conversion, which a huge JSON integer overflows.
                if not (attr.lo <= lo <= hi <= attr.hi and math.isfinite(lo) and math.isfinite(hi)):
                    raise DataError(f"{at}: needs finite {attr.lo:g} <= lo <= hi <= {attr.hi:g}, "
                                    f"got lo={lo!r}, hi={hi!r}")
            else:
                fields = (("label", str), ("leaf_lo", int), ("leaf_hi", int))
                label, lo, hi = (json_field(ext, key, kind, at) for key, kind in fields)
                try:
                    node = attr.hierarchy.lca(lo, hi)
                except HierarchyError as exc:
                    raise DataError(f"{at}: {exc}") from None
                if (label, lo, hi) != (node.label, node.leaf_lo, node.leaf_hi):
                    raise DataError(f"{at}: label {label!r} with leaves [{lo}, {hi}] is not the "
                                    f"hierarchy node {node.label!r} [{node.leaf_lo}, {node.leaf_hi}] "
                                    "covering them")
            extents.append((float(lo), float(hi)))
        counts = [0] * dist.m
        for value, c in json_field(cls, "sa", dict, where).items():
            if value not in index:
                raise DataError(f"{where}: unknown SA value {value!r}")
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= dist.total:
                raise DataError(f"{where}: count of {value!r} must be an integer from 0 to {dist.total}")
            counts[index[value]] = c
            totals[index[value]] += c
        size = sum(counts)
        if size != json_field(cls, "size", int, where):
            raise DataError(f"{where}: class size does not match its SA counts")
        if size == 0:
            raise DataError(f"{where}: class is empty")
        ecs.append(EquivalenceClass(tuple(extents), np.asarray(counts, dtype=np.int64), None))
    for value, total, expected in zip(dist.values, totals, dist.counts):
        if total != expected:
            raise DataError(f"{path}: field 'classes': counts of {value!r} sum to {total}, "
                            f"but 'sa' field 'counts' gives {expected}")
    return Release(schema, dist, beta, seed, curve_order, tuple(ecs))
