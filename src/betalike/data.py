"""Dataset schemas, CSV ingestion, and synthetic microdata generation."""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .hierarchy import Hierarchy, HierarchyError
from .likeness import Distribution, LikenessError

QI = "qi"
SA = "sa"
NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    pass


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer", (int, float): "number"}


def json_field(obj: dict, key: str, kind, where, items=None):
    """obj[key] when it is a `kind` (a list holding only `items`, if given);
    otherwise a DataError naming `where` (the file) and the field."""
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    value = obj[key]
    def is_a(v, t) -> bool:
        return isinstance(v, t) and not isinstance(v, bool)
    if not is_a(value, kind) or items is not None and not all(is_a(v, items) for v in value):
        expected = _JSON_NAMES[kind] + (f" of {_JSON_NAMES[items]}s" if items is not None else "")
        raise DataError(f"{where}: field {key!r} must be a JSON {expected}")
    return value


def json_beta(obj: dict, where):
    """obj["beta"], a finite number > 0; a JSON integer too large for a
    float is not one."""
    beta = json_field(obj, "beta", (int, float), where)
    if not 0 < beta <= sys.float_info.max:
        raise DataError(f"{where}: field 'beta' must be a finite number > 0")
    return beta


def distribution_from_obj(obj: dict, where) -> Distribution:
    """The SA distribution an artifact stores as "values", "counts", "total"."""
    values = json_field(obj, "values", list, where, items=str)
    counts = json_field(obj, "counts", list, where, items=int)
    total = json_field(obj, "total", int, where)
    try:
        return Distribution(tuple(values), tuple(counts), total)
    except LikenessError as exc:
        raise DataError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class Attribute:
    """One column's declaration: role, kind, and domain."""

    name: str
    role: str
    kind: str = CATEGORICAL
    lo: float | None = None
    hi: float | None = None
    hierarchy: Hierarchy | None = None
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.role not in (QI, SA):
            raise DataError(f"attribute {self.name!r}: role must be 'qi' or 'sa'")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"attribute {self.name!r}: kind must be numeric or categorical")
        if self.role == SA and self.kind != CATEGORICAL:
            raise DataError(f"attribute {self.name!r}: the sensitive attribute must be categorical")
        if self.kind == NUMERIC:
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise DataError(f"attribute {self.name!r}: numeric domain needs lo < hi")
        elif self.role == QI and self.hierarchy is None:
            raise DataError(f"attribute {self.name!r}: categorical QI needs a hierarchy")
        if self.weight is not None and self.weight < 0:
            raise DataError(f"attribute {self.name!r}: weight must be nonnegative")


@dataclass(frozen=True)
class DatasetSchema:
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        sas = [a for a in self.attributes if a.role == SA]
        if len(sas) != 1:
            raise DataError(f"schema must declare exactly one SA attribute, found {len(sas)}")
        if not self.qi_attributes:
            raise DataError("schema needs at least one QI attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        given = [a.weight for a in self.qi_attributes if a.weight is not None]
        if given and len(given) != len(self.qi_attributes):
            raise DataError("either weight every QI attribute or none")
        if given and abs(sum(given) - 1.0) > 1e-9:
            raise DataError(f"QI weights must sum to 1, got {sum(given)}")

    @property
    def qi_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.role == QI)

    @property
    def sa_attribute(self) -> Attribute:
        return next(a for a in self.attributes if a.role == SA)

    def qi_weights(self) -> np.ndarray:
        qi = self.qi_attributes
        if qi[0].weight is None:
            return np.full(len(qi), 1.0 / len(qi))
        return np.asarray([a.weight for a in qi], dtype=float)


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable microdata table.

    QI columns are stored per attribute (float64 for numeric, leaf indices for
    categorical). SA values are interned to dense codes 0..m-1 in ascending
    frequency order, ties broken by first appearance in row order; every
    downstream module relies on that ordering. The derived arrays
    `qi_values`, `qi_codes` and `qi_tuples` are computed on first use and
    never invalidated, which is sound only because a table is never
    modified after it is built. Curve keys and the naive-Bayes audit work
    once per distinct QI tuple and gather by `qi_tuples`' row index.
    """

    schema: DatasetSchema
    qi_columns: tuple[np.ndarray, ...]
    sa_codes: np.ndarray
    sa_values: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.sa_codes)

    @property
    def m(self) -> int:
        return len(self.sa_values)

    def sa_counts(self) -> np.ndarray:
        return np.bincount(self.sa_codes, minlength=self.m)

    @cached_property
    def _qi_distinct(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per QI column, (sorted distinct values, each row's index into
        them) from one `np.unique`."""
        out = []
        for col in self.qi_columns:
            values, codes = np.unique(col, return_inverse=True)
            out.append((values, codes.astype(np.min_scalar_type(max(len(values) - 1, 0)))))
        return tuple(out)

    @cached_property
    def qi_values(self) -> tuple[np.ndarray, ...]:
        """Sorted distinct values of each QI column."""
        return tuple(values for values, _ in self._qi_distinct)

    @cached_property
    def qi_codes(self) -> tuple[np.ndarray, ...]:
        """Per QI column, each row's index into `qi_values`, in the narrowest
        unsigned dtype that holds it."""
        return tuple(codes for _, codes in self._qi_distinct)

    @cached_property
    def qi_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """(tuples, inverse): the distinct rows of `qi_codes` in lexicographic
        order, shaped (T, d), and each row's index into them in the narrowest
        unsigned dtype that holds it."""
        key = np.zeros(self.n_rows, dtype=np.int64)
        radix = 1
        for codes, size in zip(self.qi_codes, map(len, self.qi_values)):
            # Mixed-radix keys keep lexicographic order; before the radix
            # product leaves int64, re-densify the key to its distinct ranks.
            if radix * size > np.iinfo(np.int64).max:
                distinct, key = np.unique(key, return_inverse=True)
                radix = len(distinct)
            key = key * size + codes
            radix *= size
        if radix <= self.n_rows:
            # A presence table over the radix ranks the keys without a sort.
            present = np.zeros(radix, dtype=bool)
            present[key] = True
            n_distinct, inverse = np.count_nonzero(present), (np.cumsum(present) - 1)[key]
        else:
            distinct, inverse = np.unique(key, return_inverse=True)
            n_distinct = len(distinct)
        tuples = np.empty((n_distinct, len(self.qi_codes)), dtype=np.result_type(*self.qi_codes))
        for k, codes in enumerate(self.qi_codes):
            tuples[inverse, k] = codes
        return tuples, inverse.astype(np.min_scalar_type(max(n_distinct - 1, 0)))

    def value_spans(self, k: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per interval, the span [first, end) of `qi_values[k]` holding the
        v with lo <= v <= hi (as a row mask compares); empty if NaN or inverted."""
        first = np.searchsorted(self.qi_values[k], lo, "left")
        end = np.searchsorted(self.qi_values[k], hi, "right")
        end[np.isnan(hi)] = 0
        return first, np.maximum(end, first)

    def qi_row(self, i: int) -> tuple:
        """Original QI values of one row (numbers and leaf labels)."""
        out = []
        for attr, col in zip(self.schema.qi_attributes, self.qi_columns):
            out.append(float(col[i]) if attr.kind == NUMERIC else attr.hierarchy.leaves[int(col[i])])
        return tuple(out)


def _intern_sa(raw_codes: np.ndarray, raw_values: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Remap arbitrary value codes to the canonical ascending-frequency order."""
    m = len(raw_values)
    counts = np.bincount(raw_codes, minlength=m)
    first_pos = np.full(m, len(raw_codes), dtype=np.int64)
    np.minimum.at(first_pos, raw_codes, np.arange(len(raw_codes)))
    order = np.lexsort((first_pos, counts))
    new_of_old = np.empty(m, dtype=np.int64)
    new_of_old[order] = np.arange(m)
    return new_of_old[raw_codes], tuple(raw_values[i] for i in order)


def table_from_rows(schema: DatasetSchema, rows: list[dict]) -> Table:
    """Validate raw rows (attribute name -> value) and build a Table."""
    if not rows:
        raise DataError("no rows")
    qi = schema.qi_attributes
    cols: list[list] = [[] for _ in qi]
    sa_raw: list[int] = []
    sa_seen: dict[str, int] = {}
    declared = schema.sa_attribute.hierarchy
    for r, row in enumerate(rows, start=1):
        for k, attr in enumerate(qi):
            try:
                value = row[attr.name]
            except KeyError:
                raise DataError(f"row {r}: missing column {attr.name!r}") from None
            if attr.kind == NUMERIC:
                try:
                    x = float(value)
                except (TypeError, ValueError):
                    raise DataError(f"row {r}: cannot parse {attr.name}={value!r} as a number") from None
                if not attr.lo <= x <= attr.hi:
                    raise DataError(
                        f"row {r}: {attr.name}={x:g} outside domain [{attr.lo:g}, {attr.hi:g}]"
                    )
                cols[k].append(x)
            else:
                try:
                    cols[k].append(attr.hierarchy.leaf_index(str(value)))
                except HierarchyError:
                    raise DataError(f"row {r}: unknown {attr.name} value {value!r}") from None
        try:
            sv = str(row[schema.sa_attribute.name])
        except KeyError:
            raise DataError(f"row {r}: missing column {schema.sa_attribute.name!r}") from None
        if declared is not None:
            try:
                declared.leaf_index(sv)
            except HierarchyError:
                raise DataError(f"row {r}: unknown {schema.sa_attribute.name} value {sv!r}") from None
        sa_raw.append(sa_seen.setdefault(sv, len(sa_seen)))

    raw_values = [v for v, _ in sorted(sa_seen.items(), key=lambda kv: kv[1])]
    codes, values = _intern_sa(np.asarray(sa_raw, dtype=np.int64), raw_values)
    qi_columns = tuple(
        np.asarray(c, dtype=float) if a.kind == NUMERIC else np.asarray(c, dtype=np.int64)
        for a, c in zip(qi, cols)
    )
    return Table(schema, qi_columns, codes, values)


def load_table(path, schema: DatasetSchema, sa_order: tuple[str, ...] | None = None) -> Table:
    """Read a comma-separated file with a header row matching the schema.

    `sa_order` pins an explicit SA code order instead of interning by
    frequency; it is how published perturbed tables are read back so their
    codes stay aligned with the published transition matrix.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected = {a.name for a in schema.attributes}
        missing = expected - set(header)
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        extra = set(header) - expected
        if extra:
            raise DataError(f"{path}: unexpected column(s) {sorted(extra)}")
        rows = [dict(zip(header, rec)) for rec in reader if rec]
    if not rows:
        raise DataError(f"{path}: no rows")
    table = table_from_rows(schema, rows)
    if sa_order is None:
        return table
    # Values may be a subset of the declared order (randomization can drive a
    # rare value's count to zero), never a superset.
    unknown = set(table.sa_values) - set(sa_order)
    if unknown:
        raise DataError(f"{path}: SA values {sorted(unknown)} not in the declared order")
    remap = np.asarray([sa_order.index(v) for v in table.sa_values], dtype=np.int64)
    return replace(table, sa_codes=remap[table.sa_codes], sa_values=tuple(sa_order))


def _format_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def save_table(table: Table, path) -> None:
    path = Path(path)
    qi_idx = {a.name: k for k, a in enumerate(table.schema.qi_attributes)}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in table.schema.attributes])
        for i in range(table.n_rows):
            rec = []
            for attr in table.schema.attributes:
                if attr.role == SA:
                    rec.append(table.sa_values[int(table.sa_codes[i])])
                else:
                    col = table.qi_columns[qi_idx[attr.name]]
                    if attr.kind == NUMERIC:
                        rec.append(_format_number(col[i]))
                    else:
                        rec.append(attr.hierarchy.leaves[int(col[i])])
            writer.writerow(rec)


def sa_distribution(table: Table) -> Distribution:
    """Overall SA distribution of a table in canonical code order."""
    counts = table.sa_counts()
    if (counts == 0).any() or any(a > b for a, b in zip(counts, counts[1:])):
        raise DataError(
            "table SA codes are not in canonical frequency order; "
            "only freshly loaded or generated tables have a distribution"
        )
    return Distribution(table.sa_values, tuple(int(c) for c in counts), table.n_rows)


# ---------------------------------------------------------------------------
# Schema config files


def parse_schema(obj: dict) -> DatasetSchema:
    try:
        specs = obj["attributes"]
    except (KeyError, TypeError):
        raise DataError("schema document needs an 'attributes' list") from None
    attrs = []
    for spec in specs:
        kind = spec.get("kind", CATEGORICAL)
        hierarchy = None
        if "hierarchy" in spec:
            hierarchy = Hierarchy(spec["hierarchy"])
        attrs.append(
            Attribute(
                name=spec["name"],
                role=spec["role"],
                kind=kind,
                lo=spec.get("min"),
                hi=spec.get("max"),
                hierarchy=hierarchy,
                weight=spec.get("weight"),
            )
        )
    return DatasetSchema(tuple(attrs))


def load_schema(path) -> DatasetSchema:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    return parse_schema(obj)


def schema_to_obj(schema: DatasetSchema) -> dict:
    out = []
    for a in schema.attributes:
        spec: dict = {"name": a.name, "role": a.role, "kind": a.kind}
        if a.kind == NUMERIC:
            spec["min"] = a.lo if not float(a.lo).is_integer() else int(a.lo)
            spec["max"] = a.hi if not float(a.hi).is_integer() else int(a.hi)
        if a.hierarchy is not None:
            spec["hierarchy"] = a.hierarchy.to_spec()
        if a.weight is not None:
            spec["weight"] = a.weight
        out.append(spec)
    return {"attributes": out}


def save_schema(schema: DatasetSchema, path) -> None:
    Path(path).write_text(json.dumps(schema_to_obj(schema), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic data

_QI_JITTER = 0.15

# Extreme SA frequencies of the census extract the synthetic profile mimics.
CENSUS_MIN_FREQ = 0.002018
CENSUS_MAX_FREQ = 0.048402


def census_like_profile(m: int = 50, lo: float = CENSUS_MIN_FREQ, hi: float = CENSUS_MAX_FREQ) -> np.ndarray:
    """Ascending frequency profile with census-like extremes, summing to 1.

    Three plateaus, the way salary-class marginals cluster: a small rare tier
    pinned at `lo`, a few top classes pinned at `hi`, and a dominant middle
    tier whose value is solved so the mass is exactly 1.
    """
    if not 0 < lo < hi < 1:
        raise DataError("need 0 < lo < hi < 1")
    rare = max(1, round(0.1 * m))
    top = max(1, round(0.06 * m))
    mid = m - rare - top
    if mid < 1:
        raise DataError(f"profile needs m >= {rare + top + 1}, got {m}")
    t2 = (1.0 - lo * rare - hi * top) / mid
    if not lo < t2 < hi:
        raise DataError(f"no census-like profile with extremes ({lo}, {hi}) at m={m}")
    return np.asarray([lo] * rare + [t2] * mid + [hi] * top)


def _apportion(freqs: np.ndarray, n: int) -> np.ndarray:
    """Ascending integer counts summing to n, proportional to ascending freqs,
    each >= 1."""
    ideal = freqs * n
    counts = np.maximum(np.floor(ideal).astype(np.int64), 1)
    diff = n - int(counts.sum())
    if diff > 0:
        order = np.argsort(-(ideal - np.floor(ideal)), kind="stable")
        for k in range(diff):
            counts[order[k % len(counts)]] += 1
    while diff < 0:
        i = int(np.argmax(counts))
        take = min(-diff, int(counts[i]) - 1)
        counts[i] -= take
        diff += take
    # Remainder fixups can locally disturb the order among near-ties.
    return np.sort(counts)


def default_qi_spec() -> tuple[Attribute, ...]:
    """Three census-like QI attributes: two integer-valued, one categorical."""
    sex = Hierarchy({"name": "person", "children": ["female", "male"]})
    return (
        Attribute("age", QI, NUMERIC, lo=16, hi=94),
        Attribute("sex", QI, CATEGORICAL, hierarchy=sex),
        Attribute("education", QI, NUMERIC, lo=1, hi=17),
    )


def generate_synthetic(
    n: int,
    m: int,
    qi_spec: tuple[Attribute, ...] | None = None,
    skew: float = 0.0,
    seed: int = 0,
    sa_freqs: np.ndarray | None = None,
    sa_name: str = "income",
    correlated: bool = True,
) -> Table:
    """Deterministic synthetic table with a skewed SA and SA-correlated QI.

    SA frequencies follow a Zipf profile with the given exponent (skew 0 is
    uniform); pass `sa_freqs` to impose an explicit profile such as
    census_like_profile(). Every SA value occurs at least once. When
    `correlated`, the first QI attribute tracks the SA value's frequency rank
    (jittered), the way income tracks age in census microdata; remaining QI
    attributes are always independent.
    """
    if m < 1:
        raise DataError("need m >= 1")
    if n < m:
        raise DataError(f"need at least one row per SA value: n={n} < m={m}")
    if skew < 0:
        raise DataError("skew must be >= 0")
    if sa_freqs is None:
        weights = np.arange(1, m + 1, dtype=float) ** -skew
        freqs = np.sort(weights / weights.sum())
    else:
        freqs = np.asarray(sa_freqs, dtype=float)
        if freqs.shape != (m,) or (freqs <= 0).any() or abs(freqs.sum() - 1.0) > 1e-9:
            raise DataError("sa_freqs must be m positive frequencies summing to 1")
        freqs = np.sort(freqs)
    counts = _apportion(freqs, n)

    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(m, dtype=np.int64), counts)
    rng.shuffle(codes)

    qi_spec = tuple(qi_spec) if qi_spec is not None else default_qi_spec()
    columns = []
    for k, attr in enumerate(qi_spec):
        if k == 0 and correlated:
            centers = (codes + 0.5) / m
            frac = np.clip(centers + _QI_JITTER * rng.standard_normal(n), 0.0, 1.0)
        else:
            frac = rng.random(n)
        if attr.kind == NUMERIC:
            columns.append(np.rint(attr.lo + frac * (attr.hi - attr.lo)))
        else:
            top = attr.hierarchy.n_leaves - 1
            columns.append(np.rint(frac * top).astype(np.int64))

    schema = DatasetSchema(qi_spec + (Attribute(sa_name, SA, CATEGORICAL),))
    raw_values = [f"v{i:03d}" for i in range(m)]
    interned, values = _intern_sa(codes, raw_values)
    return Table(schema, tuple(columns), interned, values)
