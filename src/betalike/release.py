"""Published form of a generalized table.

Each equivalence class carries a generalized QI description, one float
(lo, hi) pair per QI attribute, plus its exact SA multiset. A numeric pair is
the closed range of the members; a categorical one is the leaf span of the
hierarchy node covering them, the lowest common ancestor, whose label exists
only in the file: `save_release` writes `Hierarchy.lca(lo, hi).label` and
`load_release` accepts no other. The overall SA distribution and the run
parameters are embedded so a release file is auditable on its own.

A release holds its classes as arrays, and only so: `class_counts`
(classes x m int64), per QI attribute a float `lo` and `hi` array
(`class_extents`), and the member rows class after class, or none for a
loaded release. `build_ec` computes them in one batched pass and
`load_release` reads them a field at a time over all classes; neither makes
an object per class. `Release.ecs` shows class k as an `EquivalenceClass`
view made on access, and a `Release` built from `EquivalenceClass` objects
turns them into the arrays once. A release is immutable: its arrays, and
those it caches (`sa_prefix`, `distinct_extents`), are read-only.

`load_release` rejects a file `generalize` could not have written: an SA
attribute the schema does not name, a negative seed, a curve order `hilbert`
would refuse, an extent outside the schema domain or not a hierarchy node,
an empty class, or class counts that do not add up to the distribution.
Reading a field at a time over all classes, it only detects that some class
is faulty; `_check_class` then reads the classes in order and raises the
first faulty one's first fault. Both share `_check_extent`, `_counts` and the
JSON type rule, so each rule is written once.
`save_release` writes the file's fixed layout from the class arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence
from itertools import chain, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .data import (CATEGORICAL, NUMERIC, DataError, DatasetSchema, Table, _num, code_dtype, distribution_from_obj,
                   distribution_to_obj, json_beta, json_field, json_seed, json_types, read_json)
from .hierarchy import HierarchyError
from .hilbert import _check_order
from .likeness import Distribution


@dataclass(frozen=True, eq=False)
class EquivalenceClass:
    """One class as a `Release` is built from it and as `Release.ecs` shows
    it, a view over the release's arrays: read-only `sa_counts` and `rows`
    (None when the release holds no member rows) and float extents."""

    extents: tuple[tuple[float, float], ...]
    sa_counts: np.ndarray
    rows: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.sa_counts.sum())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Classes(Sequence):
    """A release's classes as read-only arrays: `counts` (classes, m) int64,
    `extents` per QI attribute a float (lo, hi) pair of arrays, and the
    member rows class after class, class k's being `rows[bounds[k]:bounds[k +
    1]]` (both None when unknown). Item k is class k as an `EquivalenceClass`
    view, made on access; a slice is a tuple of them."""

    def __init__(self, counts: np.ndarray, extents, rows: np.ndarray | None = None, ends=None) -> None:
        self.counts = _frozen(counts)
        # Float whatever the column's dtype: `distinct_extents` reads the bits as float64.
        self.extents = tuple((_frozen(np.asarray(lo, dtype=float)), _frozen(np.asarray(hi, dtype=float)))
                             for lo, hi in extents)
        # A view, so freezing it leaves the caller's array as it was.
        self.rows = None if rows is None else _frozen(rows.view())
        self.bounds = None if rows is None else _frozen(np.concatenate([[0], ends]))

    @classmethod
    def of(cls, ecs: Sequence[EquivalenceClass], m: int, axes: int) -> _Classes:
        """The arrays of `ecs`; member rows only if every class has them."""
        counts = np.asarray([ec.sa_counts for ec in ecs], dtype=np.int64).reshape(-1, m)
        shape = (len(ecs), axes, 2)
        bounds = chain.from_iterable(chain.from_iterable(ec.extents for ec in ecs))
        pairs = np.fromiter(bounds, dtype=float, count=math.prod(shape)).reshape(shape)
        rows = ends = None
        if ecs and all(ec.rows is not None for ec in ecs):
            rows = np.concatenate([ec.rows for ec in ecs])
            ends = np.cumsum([len(ec.rows) for ec in ecs])
        return cls(counts, pairs.transpose(1, 2, 0).copy(), rows, ends)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]
        rows = None if self.rows is None else self.rows[self.bounds[k]:self.bounds[k + 1]]
        extents = tuple((float(lo[k]), float(hi[k])) for lo, hi in self.extents)
        return EquivalenceClass(extents, self.counts[k], rows)


@dataclass(frozen=True, eq=False)
class Release:
    """A generalized table as published. `ecs` may be given as any sequence
    of `EquivalenceClass`; it is held as the class arrays, once."""

    schema: DatasetSchema
    dist: Distribution
    beta: float
    seed: int
    curve_order: int
    ecs: Sequence[EquivalenceClass]

    def __post_init__(self) -> None:
        if not isinstance(self.ecs, _Classes):
            classes = _Classes.of(tuple(self.ecs), self.dist.m, len(self.schema.qi_attributes))
            object.__setattr__(self, "ecs", classes)

    @property
    def n_rows(self) -> int:
        return int(self.class_counts.sum())

    @property
    def class_counts(self) -> np.ndarray:
        """(classes, m) int64: each class's SA counts."""
        return self.ecs.counts

    @cached_property
    def sa_prefix(self) -> np.ndarray:
        """(m + 1, classes) float64: row s holds each class's count of SA codes below s."""
        return _frozen(np.vstack([np.zeros(len(self.class_counts)), np.cumsum(self.class_counts, axis=1).T]))

    @property
    def class_extents(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per QI attribute, float (lo, hi) over the classes; categorical: the leaf span."""
        return self.ecs.extents

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
            out.append(tuple(map(_frozen, (lo_bits[lo_code].view(float), hi_bits[hi_code].view(float), index))))
        return tuple(out)


def build_ec(table: Table, rows: np.ndarray, sizes) -> Sequence[EquivalenceClass]:
    """The classes whose members are consecutive runs of `rows`, the k-th
    `sizes[k]` long, with tight QI extents and SA counts, as arrays: one
    `bincount` of class * m + SA code, `reduceat` over QI codes, ordered as
    `qi_values`, and one `Hierarchy.lca` per distinct member leaf span, whose
    node span each class with that span takes. The classes keep a read-only
    view of `rows`."""
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
    extents = []
    for attr, values, codes in zip(table.schema.qi_attributes, table.qi_values, table.qi_codes):
        member = codes[rows]
        lo, hi = values[np.minimum.reduceat(member, starts)], values[np.maximum.reduceat(member, starts)]
        if attr.kind != NUMERIC:
            leaves = attr.hierarchy.n_leaves
            spans, index = np.unique(lo * leaves + hi, return_inverse=True)
            nodes = [attr.hierarchy.lca(*divmod(span, leaves)) for span in spans.tolist()]
            lo, hi = np.asarray([(node.leaf_lo, node.leaf_hi) for node in nodes], dtype=float)[index].T.copy()
        extents.append((lo, hi))
    return _Classes(counts, extents, rows, ends)


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


def _counts(values: list, most: int) -> tuple[np.ndarray, np.ndarray]:
    """(ok, counts): which of `values` are JSON integers from 0 to `most`
    (below 2**63), and each as an int64, -1 where it is not one."""
    try:
        if set(map(type, values)) <= {int}:
            counts = np.fromiter(values, dtype=np.int64, count=len(values))
            return (counts >= 0) & (counts <= most), counts
    except OverflowError:
        pass
    counts = np.fromiter((v if type(v) is int and 0 <= v <= most else -1 for v in values),
                         dtype=np.int64, count=len(values))
    return counts >= 0, counts


# The fields `_check_extent` reads, with their JSON kinds, per attribute kind; the last two are (lo, hi).
_EXTENT_FIELDS = {NUMERIC: (("lo", (int, float)), ("hi", (int, float))),
                  CATEGORICAL: (("label", str), ("leaf_lo", int), ("leaf_hi", int))}


def _check_extent(attr, ext: dict, at) -> None:
    """The first fault of one class's extent of `attr`, named `at`, as a
    DataError: a field's type, then the range or the hierarchy node."""
    if attr.kind == NUMERIC:
        lo, hi = json_field(ext, "lo", (int, float), at), json_field(ext, "hi", (int, float), at)
        # Compared before any float conversion, which a huge JSON integer overflows.
        if not (attr.lo <= lo <= hi <= attr.hi and math.isfinite(lo) and math.isfinite(hi)):
            raise DataError(f"{at}: needs finite {attr.lo:g} <= lo <= hi <= {attr.hi:g}, got lo={lo!r}, hi={hi!r}")
        return
    label = json_field(ext, "label", str, at)
    lo, hi = json_field(ext, "leaf_lo", int, at), json_field(ext, "leaf_hi", int, at)
    try:
        node = attr.hierarchy.lca(lo, hi)
    except HierarchyError as exc:
        raise DataError(f"{at}: {exc}") from None
    if (label, lo, hi) != (node.label, node.leaf_lo, node.leaf_hi):
        raise DataError(f"{at}: label {label!r} with leaves [{lo}, {hi}] is not the hierarchy node "
                        f"{node.label!r} [{node.leaf_lo}, {node.leaf_hi}] covering them")


def _check_class(cls: dict, at: str, qi, dist: Distribution) -> None:
    """The first fault of one class, named `at`, as a DataError, in the
    order a class is read: its extents, each QI attribute's in schema order;
    its SA entries in key order (a known value, then its count); its size
    (type, match, not empty)."""
    extents = json_field(cls, "extents", list, at, items=dict)
    if len(extents) != len(qi):
        raise DataError(f"{at}: needs one extent per QI attribute")
    for attr, ext in zip(qi, extents):
        _check_extent(attr, ext, f"{at}: extent {attr.name}")
    sa = json_field(cls, "sa", dict, at)
    known = set(dist.values)
    for value, ok in zip(sa, _counts(list(sa.values()), dist.total)[0].tolist()):
        if value not in known:
            raise DataError(f"{at}: unknown SA value {value!r}")
        if not ok:
            raise DataError(f"{at}: count of {value!r} must be an integer from 0 to {dist.total}")
    total = sum(sa.values())
    if json_field(cls, "size", int, at) != total:
        raise DataError(f"{at}: class size does not match its SA counts")
    if total == 0:
        raise DataError(f"{at}: class is empty")


def _first_fault(classes: list, path: Path, qi, dist: Distribution) -> NoReturn:
    """Raise `_check_class`'s error for the first faulty class in file order."""
    for k, cls in enumerate(classes):
        _check_class(cls, f"{path}: classes[{k}]", qi, dist)
    raise AssertionError(f"{path}: the classes read as faulty, but no class shows a fault")


def _read_classes(classes: list, path: Path, schema: DatasetSchema,
                  dist: Distribution) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(counts, extents) of the release's `classes`, read a field at a time
    over all of them; a check that finds some class faulty calls `_first_fault`.
    Then the per-value sums must give the distribution's counts; a sum that
    may pass 2**63 is taken in Python ints, which no file can wrap."""
    n, m, qi = len(classes), dist.m, schema.qi_attributes
    rows = list(map(dict.get, classes, repeat("extents")))
    if not (json_types(rows, list, dict).all() and all(len(e) == len(qi) for e in rows)):
        _first_fault(classes, path, qi, dist)
    bounds = []
    for axis, attr in enumerate(qi):
        fields = _EXTENT_FIELDS[attr.kind]
        objs = [row[axis] for row in rows]
        columns = [list(map(dict.get, objs, repeat(key))) for key, _ in fields]
        faulty = not all(json_types(column, kind).all() for column, (_, kind) in zip(columns, fields))
        if not faulty:
            try:
                # Each distinct extent is checked once; typed fields are numbers or strings, which hash.
                for ext in dict(zip(zip(*columns), objs)).values():
                    _check_extent(attr, ext, "")
            except DataError:
                faulty = True
        if faulty:
            _first_fault(classes, path, qi, dist)
        bounds.append(columns[-2:])
    sa = list(map(dict.get, classes, repeat("sa")))
    if not json_types(sa, dict).all():
        _first_fault(classes, path, qi, dist)
    lengths = np.fromiter(map(len, sa), dtype=np.int64, count=n)
    index = {v: i for i, v in enumerate(dist.values)}
    codes = np.fromiter(map(index.get, chain.from_iterable(sa), repeat(-1)), dtype=np.int64, count=lengths.sum())
    counted, counts = _counts(list(chain.from_iterable(map(dict.values, sa))), dist.total)
    if not (counted.all() and (codes >= 0).all()):
        _first_fault(classes, path, qi, dist)
    matrix = np.zeros((n, m), dtype=np.int64)
    matrix.ravel()[np.repeat(np.arange(0, n * m, m), lengths) + codes] = counts
    # Each count is below 2**63, but their sums need not be.
    exact = matrix.astype(object) if matrix.sum(dtype=float) >= 2**62 else matrix
    sums = exact.sum(axis=1).tolist()
    size = list(map(dict.get, classes, repeat("size")))
    if not json_types(size, int).all() or any(s != t or t == 0 for s, t in zip(size, sums)):
        _first_fault(classes, path, qi, dist)
    for value, total, expected in zip(dist.values, exact.sum(axis=0).tolist(), dist.counts):
        if total != expected:
            raise DataError(f"{path}: field 'classes': counts of {value!r} sum to {total}, "
                            f"but 'sa' field 'counts' gives {expected}")
    return matrix, [(np.array(lo, dtype=float), np.array(hi, dtype=float)) for lo, hi in bounds]


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
    classes = json_field(obj, "classes", list, path, items=dict)
    counts, extents = _read_classes(classes, path, schema, dist)
    return Release(schema, dist, beta, seed, curve_order, _Classes(counts, extents))
