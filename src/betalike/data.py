"""Dataset schemas, CSV ingestion, and synthetic microdata generation."""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
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


def read_json(path):
    """The JSON document in the file at `path`. Bytes that are not UTF-8,
    text that is not JSON, or nesting too deep to decode is a DataError
    naming the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer", (int, float): "number"}


def _is_a(value, kind) -> bool:
    """The JSON type rule: an instance of `kind` (a type, or a tuple of
    types) that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_types(values: list, kind, items=None) -> np.ndarray:
    """Which of `values` are a JSON `kind` (a list holding only `items`, if
    given), by `_is_a`. One look at the set of their types settles it when
    each value, and each item, has exactly an expected type."""
    kinds = set(kind) if isinstance(kind, tuple) else {kind}
    if set(map(type, values)) <= kinds and (items is None
                                            or set(map(type, chain.from_iterable(values))) <= {items}):
        return np.ones(len(values), dtype=bool)
    return np.fromiter((_is_a(v, kind) and (items is None or json_types(v, items).all()) for v in values),
                       dtype=bool, count=len(values))


def json_field(obj: dict, key: str, kind, where, items=None):
    """obj[key] when it is a `kind` (a list holding only `items`, if given,
    as `json_types` decides); otherwise a DataError naming `where` (the
    file) and the field."""
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not _is_a(value, kind) or items is not None and not json_types(value, items).all():
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


def json_seed(obj: dict, where) -> int:
    """obj["seed"], an integer >= 0, as the producing command's --seed is."""
    seed = json_field(obj, "seed", int, where)
    if seed < 0:
        raise DataError(f"{where}: field 'seed' must be >= 0, got {seed}")
    return seed


def distribution_to_obj(dist: Distribution, schema: DatasetSchema) -> dict:
    """The SA distribution block both artifacts publish: the schema's SA
    attribute name, then the distribution's values, counts and total."""
    return {"attribute": schema.sa_attribute.name, "values": list(dist.values),
            "counts": list(dist.counts), "total": dist.total}


def distribution_from_obj(obj: dict, where, schema: DatasetSchema) -> Distribution:
    """The SA distribution an artifact stores as `distribution_to_obj`
    writes it; the total must fit the int64 count arrays the artifact is
    read into, and "attribute" must name the schema's SA attribute."""
    values = json_field(obj, "values", list, where, items=str)
    counts = json_field(obj, "counts", list, where, items=int)
    total = json_field(obj, "total", int, where)
    if total > 2**63 - 1:
        raise DataError(f"{where}: field 'total' must be at most 2**63 - 1, got {total}")
    try:
        dist = Distribution(tuple(values), tuple(counts), total)
    except LikenessError as exc:
        raise DataError(f"{where}: {exc}") from None
    name = json_field(obj, "attribute", str, where)
    if name != schema.sa_attribute.name:
        raise DataError(f"{where}: field 'attribute' is {name!r}, but the schema's "
                        f"SA attribute is {schema.sa_attribute.name!r}")
    return dist


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
        # Compared before any float conversion, which a huge JSON integer
        # overflows; NaN and the infinities fail the comparisons. The width
        # divides the loss metric and the curve quantization.
        big = sys.float_info.max
        if self.kind == NUMERIC:
            if (self.lo is None or self.hi is None
                    or not (-big <= self.lo < self.hi <= big and self.hi - self.lo <= big)):
                raise DataError(f"attribute {self.name!r}: numeric domain needs finite lo < hi "
                                "and a finite width hi - lo")
        elif self.role == QI and self.hierarchy is None:
            raise DataError(f"attribute {self.name!r}: categorical QI needs a hierarchy")
        if self.weight is not None and not 0 <= self.weight <= big:
            raise DataError(f"attribute {self.name!r}: weight must be a finite number >= 0")


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

    @cached_property
    def qi_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.role == QI)

    @cached_property
    def sa_attribute(self) -> Attribute:
        return next(a for a in self.attributes if a.role == SA)

    def qi_weights(self) -> np.ndarray:
        qi = self.qi_attributes
        if qi[0].weight is None:
            return np.full(len(qi), 1.0 / len(qi))
        return np.asarray([a.weight for a in qi], dtype=float)


# `Table.prefix_cube` sums along an axis by adding whole slabs, one numpy
# call each, when a slab holds at least this many cells, else by np.cumsum.
_SLAB_CELLS = 256


def code_dtype(k: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the codes 0..k-1."""
    return np.min_scalar_type(max(k - 1, 0))


def _distinct_codes(key: np.ndarray, radix: float = math.inf,
                    counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, codes): the sorted distinct values of `key` and each
    element's index into them, in `code_dtype`. Integer keys in [0, radix)
    with radix <= len(key) are counted (or `counts` holds each one's count),
    not sorted, and are their own codes when every one of 0..radix-1 occurs;
    other keys go through `np.unique`."""
    if radix <= len(key):
        if counts is None:
            counts = np.bincount(key, minlength=int(radix))
        present = counts > 0
        distinct = np.flatnonzero(present)
        codes = key if len(distinct) == radix else (np.cumsum(present) - 1)[key]
    else:
        distinct, codes = np.unique(key, return_inverse=True)
    return distinct, codes.astype(code_dtype(len(distinct)), copy=False)


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable microdata table.

    Each QI column is its sorted distinct values, `qi_values` (float64 for
    numeric, leaf indices for categorical), and each row's index into them,
    `qi_codes`. SA values are interned to dense codes 0..m-1 in ascending
    frequency order, ties broken by first appearance in row order; every
    downstream module relies on that ordering. Codes are in `code_dtype`.
    The derived arrays `qi_tuples`, `prefix_cube` and `rows_by_sa` are
    computed on first use and never invalidated, which is sound only
    because a table is never modified after it is built; one made with
    `dataclasses.replace` shares `qi_values` and `qi_codes` and starts with
    none of them. Curve keys and the naive-Bayes audit work once per
    distinct QI tuple and gather by `qi_tuples`' row index. When
    `qi_tuples` counts the prefix cube's cells, the table keeps the counts
    until `prefix_cube` takes them.
    """

    schema: DatasetSchema
    qi_values: tuple[np.ndarray, ...]
    qi_codes: tuple[np.ndarray, ...]
    sa_codes: np.ndarray
    sa_values: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.sa_codes)

    @property
    def m(self) -> int:
        return len(self.sa_values)

    @property
    def qi_columns(self) -> tuple[np.ndarray, ...]:
        """Each QI column's value per row, gathered on every call, not kept."""
        return tuple(values[codes] for values, codes in zip(self.qi_values, self.qi_codes))

    def sa_counts(self) -> np.ndarray:
        return np.bincount(self.sa_codes, minlength=self.m)

    @cached_property
    def qi_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """(tuples, inverse): the distinct rows of `qi_codes` in lexicographic
        order, shaped (T, d), and each row's index into them in `code_dtype`.

        When the cells of the prefix cube's counts (distinct QI values x SA
        codes) number at most the rows, one count over those cells finds the
        distinct tuples, and the counts are kept for `prefix_cube`, which
        then needs no pass over the rows."""
        sizes = tuple(map(len, self.qi_values))
        radix = math.prod(sizes)
        # Mixed-radix keys keep lexicographic order.
        mixed = True
        if radix * self.m <= self.n_rows:
            cells = self._cell_keys()
            counts = np.bincount(cells, minlength=radix * self.m)
            self.__dict__["_cell_counts"] = counts
            distinct, inverse = _distinct_codes(cells // self.m, radix, counts.reshape(radix, self.m).sum(axis=1))
        else:
            key = np.zeros(self.n_rows, dtype=np.int64)
            radix = 1
            for codes, size in zip(self.qi_codes, sizes):
                # Before the radix product leaves int64, re-densify the key
                # to its distinct ranks.
                if radix * size > np.iinfo(np.int64).max:
                    distinct, key = np.unique(key, return_inverse=True)
                    radix = len(distinct)
                    mixed = False
                key = key * size + codes
                radix *= size
            distinct, inverse = _distinct_codes(key, radix)
        dtype = np.result_type(*self.qi_codes)
        if mixed:
            tuples = np.stack(np.unravel_index(distinct, sizes), axis=1).astype(dtype)
        else:
            tuples = np.empty((len(distinct), len(self.qi_codes)), dtype=dtype)
            for k, codes in enumerate(self.qi_codes):
                tuples[inverse, k] = codes
        return tuples, inverse

    def _cell_keys(self) -> np.ndarray:
        """Each row's cell among the distinct QI values x SA codes, numbered
        in C order as `np.ravel_multi_index` numbers them, for at most 2**63
        cells."""
        shape = (*map(len, self.qi_values), self.m)
        key = self.qi_codes[0].astype(np.uint32 if math.prod(shape) <= 2**32 else np.int64)
        for codes, size in zip((*self.qi_codes[1:], self.sa_codes), shape[1:]):
            key *= size
            key += codes
        return key

    @cached_property
    def prefix_cube(self) -> np.ndarray:
        """Zero-padded prefix sums over distinct QI values x SA codes, int64:
        cube[i_1, ..., i_d, s] counts the rows with SA code s whose value on
        every QI axis k is among its first i_k `qi_values`. Its size is the
        product of the distinct counts, so the query module reads it only
        for tables within its cell budget."""
        shape = (*map(len, self.qi_values), self.m)
        counts = self.__dict__.pop("_cell_counts", None)
        if counts is None:
            counts = np.bincount(self._cell_keys(), minlength=math.prod(shape))
        cube = np.zeros(tuple(n + 1 for n in shape[:-1]) + (self.m,), dtype=np.int64)
        cube[(slice(1, None),) * (len(shape) - 1)] = counts.reshape(shape)
        for axis in range(len(shape) - 1):
            slabs = np.moveaxis(cube, axis, 0)
            if slabs[0].size >= _SLAB_CELLS:
                # Adding whole slabs runs at numpy's vector speed; np.cumsum
                # along an outer axis is several times slower.
                for i in range(1, len(slabs)):
                    slabs[i] += slabs[i - 1]
            else:
                np.cumsum(cube, axis=axis, out=cube)
        return cube

    @cached_property
    def rows_by_sa(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """(codes, starts): `qi_codes` with the rows in stable SA-code order,
        and each SA code's first position in that order, with `n_rows`
        appended (an SA code without rows has an empty span). The query
        module counts tables past its cube budget from these."""
        # Narrow codes make the stable sort a radix sort.
        order = np.argsort(self.sa_codes, kind="stable")
        starts = np.zeros(self.m + 1, dtype=np.intp)
        np.cumsum(self.sa_counts(), out=starts[1:])
        return tuple(codes[order] for codes in self.qi_codes), starts

    def value_spans(self, k: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per interval, the span [first, end) of `qi_values[k]` holding the
        v with lo <= v <= hi (as a row mask compares); empty if NaN or inverted."""
        first = np.searchsorted(self.qi_values[k], lo, "left")
        end = np.searchsorted(self.qi_values[k], hi, "right")
        end[np.isnan(hi)] = 0
        return first, np.maximum(end, first)


def _intern_sa(raw_codes: np.ndarray, raw_values: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Remap arbitrary value codes to the canonical ascending-frequency order."""
    m = len(raw_values)
    counts = np.bincount(raw_codes, minlength=m)
    first_pos = np.full(m, len(raw_codes), dtype=np.int64)
    np.minimum.at(first_pos, raw_codes, np.arange(len(raw_codes)))
    order = np.lexsort((first_pos, counts))
    new_of_old = np.argsort(order).astype(code_dtype(m))
    # `np.take` reads narrow codes about twice as fast as indexing with them.
    return np.take(new_of_old, raw_codes), tuple(raw_values[i] for i in order)


# A field that a short record or a row dict lacks; it fails as a missing column.
_MISSING = object()

# Records per block read by `load_table`'s `csv.reader` path. A block's
# record lists stay under CPython's default count of 700 new objects per
# youngest-generation collection, so they are freed before a collection
# can promote them; blocks of 16,384 made a 100k-row load about 1.8 times
# slower.
_BLOCK = 512


class _Interner:
    """One column interned block by block: `index` maps each distinct value
    to the row where it first appeared, and `rows` holds, per block, that
    row for each of the block's rows, in `code_dtype` of the rows so far."""

    def __init__(self) -> None:
        self.index: dict = {}
        self.rows: list[np.ndarray] = []
        self.n = 0

    def add(self, values) -> None:
        n = len(values)
        self.rows.append(np.fromiter(map(self.index.setdefault, values, range(self.n, self.n + n)),
                                     dtype=code_dtype(self.n + n), count=n))
        self.n += n

    def distinct(self) -> tuple[list, np.ndarray]:
        """The distinct values in first-appearance order, and each row's
        index into them in the narrowest unsigned dtype that holds it."""
        firsts = np.fromiter(self.index.values(), dtype=np.int64, count=len(self.index))
        dense = np.empty(self.n, dtype=code_dtype(len(firsts)))
        dense[firsts] = np.arange(len(firsts))
        return list(self.index), dense[np.concatenate(self.rows)] if self.rows else dense


# Bytes per read of a plain table file (see `_plain_columns`). A chunk's
# separator offsets take about twice its bytes; at 1M census rows, 512 KiB
# loaded as fast as 1 MiB and traced a 13 MB peak instead of 17 MB.
_CHUNK = 1 << 19

# The longest field, in bytes, of a plain file. A column's keys in a chunk
# are as wide as its longest field there, so one long field would widen
# every row's key; longer fields go to `csv.reader`.
_MAX_FIELD = 64

# _KEEP[n]: the bits of a big-endian uint64 word's first n bytes.
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)


def _as_bytes(keys: np.ndarray, width: int) -> np.ndarray:
    """Field keys as zero-padded `S{width}` strings; uint64 keys are their
    bytes, big-endian."""
    if keys.dtype.kind == "u":
        keys = keys.astype(">u8").view("S8")
    return keys.astype(f"S{width}")


class _KeyInterner:
    """One column's field keys interned chunk by chunk, as `_Interner` does
    with strings: `sorted` holds the distinct keys in ascending order and
    `ids` each one's id, numbered in the order chunks add them, so no
    chunk's codes change when a later chunk adds keys; `codes` holds, per
    chunk, each row's id in `code_dtype` of the keys so far."""

    def __init__(self) -> None:
        self.sorted = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.intp)
        self.codes: list[np.ndarray] = []

    def add(self, keys: np.ndarray) -> None:
        distinct, inverse = np.unique(keys, return_inverse=True)
        if distinct.dtype != self.sorted.dtype:
            width = max(distinct.itemsize, self.sorted.itemsize)
            distinct, self.sorted = _as_bytes(distinct, width), _as_bytes(self.sorted, width)
        pos = np.searchsorted(self.sorted, distinct)
        if len(self.ids):
            ids = np.take(self.ids, pos, mode="clip")
            new = np.flatnonzero(np.take(self.sorted, pos, mode="clip") != distinct)
        else:
            ids, new = np.empty(len(distinct), dtype=np.intp), np.arange(len(distinct))
        # Keys first seen in this chunk get the next ids, in key order.
        ids[new] = np.arange(len(self.ids), len(self.ids) + len(new))
        self.sorted = np.insert(self.sorted, pos[new], distinct[new])
        self.ids = np.insert(self.ids, pos[new], ids[new])
        self.codes.append(np.take(ids.astype(code_dtype(len(self.ids))), inverse))

    def distinct(self, numeric: bool) -> tuple[list[str] | _NumberKeys, np.ndarray]:
        """The distinct fields, by id, and each row's id. A numeric
        column's uint64 keys stay keys (`_NumberKeys`); any other fields
        become `str`, a UnicodeDecodeError if one is not UTF-8."""
        keys = np.empty_like(self.sorted)
        keys[self.ids] = self.sorted
        codes = np.concatenate(self.codes, dtype=code_dtype(len(keys)))
        return _NumberKeys(keys) if numeric and keys.dtype == np.uint64 else _decoded(keys), codes


def _decoded(keys: np.ndarray) -> list[str]:
    """Field keys as `str`; a UnicodeDecodeError if one is not UTF-8."""
    keys = _as_bytes(keys, keys.itemsize)
    if (keys.view(np.uint8) < 0x80).all():
        return keys.astype(f"U{keys.itemsize}").tolist()
    return [key.decode("utf-8") for key in keys.tolist()]


# Eight ASCII '0' bytes.
_ZEROS = 0x3030303030303030


def _key_numbers(keys: np.ndarray) -> np.ndarray:
    """What `float()` makes of the fields of uint64 keys, NaN where it
    fails. A key of 1 to 8 ASCII digits is parsed in numpy: its '0' bytes
    subtracted, the digits aligned to the right, and combined pairwise in
    16-, 32- and then 64-bit lanes. Any other key is decoded and goes
    through `float()`; a UnicodeDecodeError if it is not UTF-8."""
    fields = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    # No field holds a NUL byte, so the nonzero bytes are the field.
    n = np.count_nonzero(fields, axis=1)
    digits = ((fields - ord("0") < 10) | (fields == 0)).all(axis=1) & (n > 0)
    n = n[digits]
    d = (keys[digits] - (_ZEROS & _KEEP[n])) >> (64 - 8 * n).astype(np.uint64)
    d = (d >> 8 & 0x00FF00FF00FF00FF) * 10 + (d & 0x00FF00FF00FF00FF)
    d = (d >> 16 & 0x0000FFFF0000FFFF) * 100 + (d & 0x0000FFFF0000FFFF)
    d = (d >> 32) * 10000 + (d & 0xFFFFFFFF)
    values = np.empty(len(keys))
    values[digits] = d
    others = np.flatnonzero(~digits)
    values[others] = np.fromiter(map(_as_number, _decoded(keys[others])), dtype=float, count=len(others))
    return values


class _NumberKeys:
    """A plain numeric column's distinct fields, by id, as uint64 keys:
    `values` holds each one's number (`_key_numbers`), and item i is field
    i as `str`, decoded only when an error message names it."""

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.values = _key_numbers(keys)

    def __getitem__(self, i: int) -> str:
        return _decoded(self.keys[i : i + 1])[0]


def _field_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field's bytes as a key that sorts as the bytes do: one uint64
    holding them big-endian, zero-padded, or, in a column with a field past
    8 bytes, an `S{8w}` string of w such words. `words[i]` is the word at
    byte offset i of the chunk, which ends in 8 zero bytes; no field holds
    a NUL byte, so padding is unambiguous."""
    n_words = max(1, -(-int(lengths.max()) // 8))
    parts = [words[np.minimum(starts + 8 * i, len(words) - 1)].astype(np.uint64)
             & _KEEP[np.clip(lengths - 8 * i, 0, 8)] for i in range(n_words)]
    if n_words == 1:
        return parts[0]
    return np.column_stack(parts).astype(">u8").view(f"S{8 * n_words}").ravel()


def _add_lines(lines: bytes, columns: list[_KeyInterner]) -> bool:
    """Intern one chunk of whole lines, each ended by a newline and free of
    quote, CR and NUL bytes, into one `_KeyInterner` per column; False,
    adding nothing, unless every line has exactly one comma fewer than
    there are columns and no field is longer than `_MAX_FIELD` bytes or
    `csv`'s limit."""
    width = len(columns)
    # Offsets are int32, half the bytes of intp; a chunk of 1 GiB or more
    # would hold a line longer than any plain file has.
    if len(lines) >= 2**30:
        return False
    buf = np.zeros(len(lines) + 8, dtype=np.uint8)
    buf[:len(lines)] = np.frombuffer(lines, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n"))).astype(np.int32)
    pattern = np.full(width, ord(","), dtype=np.uint8)
    pattern[-1] = ord("\n")
    if len(ends) % width or (buf[ends].reshape(-1, width) != pattern).any():
        return False
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    del ends
    if lengths.max() > min(_MAX_FIELD, csv.field_size_limit()):
        return False
    words = np.lib.stride_tricks.sliding_window_view(buf, 8).view(">u8")[:, 0]
    starts, lengths = starts.reshape(-1, width), lengths.reshape(-1, width)
    for j, column in enumerate(columns):
        column.add(_field_keys(words, starts[:, j], lengths[:, j]))
    return True


def _line_chunks(fh):
    """The bytes of a binary file in pieces of about `_CHUNK` bytes, each
    cut after a newline; a last line without one gets one."""
    rest: list[bytes] = []
    while chunk := fh.read(_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*rest, chunk[:cut]])
            rest = [chunk[cut:]]
        else:
            rest.append(chunk)
    if any(rest):
        yield b"".join([*rest, b"\n"])


def _plain_columns(path: Path, schema: DatasetSchema) -> dict[str, tuple[list, np.ndarray]] | None:
    """The columns of a plain table file as `_KeyInterner.distinct` gives
    them (header name -> distinct values, each row's index into them), or None
    if the file is not plain. A plain file is UTF-8 with a header that
    `_header_error` accepts, at least one row, and only lines that
    `_add_lines` takes; `csv.reader` reads such a file as the same fields."""
    columns = None
    with path.open("rb") as fh:
        for lines in _line_chunks(fh):
            if b'"' in lines or b"\r" in lines or b"\0" in lines:
                return None
            if columns is None:
                line, _, lines = lines.partition(b"\n")
                try:
                    header = line.decode("utf-8").split(",")
                except UnicodeDecodeError:
                    return None
                if _header_error(header, schema) is not None:
                    return None
                columns = [_KeyInterner() for _ in header]
            if lines and not _add_lines(lines, columns):
                return None
    if columns is None or not columns[0].codes:
        return None
    numeric = {attr.name for attr in schema.qi_attributes if attr.kind == NUMERIC}
    try:
        return {name: column.distinct(name in numeric) for name, column in zip(header, columns)}
    except UnicodeDecodeError:
        return None


def _as_number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _checked(attr: Attribute, distinct: list | _NumberKeys) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct raw value parsed once: (its float, or its leaf index, or
    -1 for an SA without a declared hierarchy), and a mask of the values
    that fail the attribute's checks."""
    if attr.kind == NUMERIC:
        values = (distinct.values if isinstance(distinct, _NumberKeys)
                  else np.fromiter(map(_as_number, distinct), dtype=float, count=len(distinct)))
        return values, ~((attr.lo <= values) & (values <= attr.hi))
    codes = np.full(len(distinct), -1, dtype=np.int64)
    bad = np.zeros(len(distinct), dtype=bool)
    for i, value in enumerate(distinct):
        if value is _MISSING:
            bad[i] = True
        elif attr.hierarchy is not None:
            try:
                codes[i] = attr.hierarchy.leaf_index(value)
            except HierarchyError:
                bad[i] = True
    return codes, bad


def _field_error(attr: Attribute, value) -> str:
    """Why one raw value fails its attribute's checks."""
    if value is _MISSING:
        return f"missing column {attr.name!r}"
    if attr.kind == CATEGORICAL:
        return f"unknown {attr.name} value {value!r}"
    try:
        x = float(value)
    except (TypeError, ValueError):
        return f"cannot parse {attr.name}={value!r} as a number"
    return f"{attr.name}={x:g} outside domain [{attr.lo:g}, {attr.hi:g}]"


def _table_from_columns(schema: DatasetSchema, columns: dict[str, tuple[list, np.ndarray]],
                        row_error: tuple[int, str] | None = None) -> Table:
    """Validate interned columns (attribute name -> the distinct raw values
    and each row's index into them) and build a Table.

    Each distinct value is parsed and checked once and the results are
    gathered by row. An error names the first row holding a failing value
    and, within it, the first failing attribute in check order: the QI
    attributes in schema order, then the SA. `row_error` is (row index,
    reason) for a fault of a whole row, which ranks before that row's values.
    """
    checked = (*schema.qi_attributes, schema.sa_attribute)
    faults = [] if row_error is None else [(row_error[0], -1, row_error[1])]
    parsed = []
    for pos, attr in enumerate(checked):
        distinct, inverse = columns[attr.name]
        values, bad = _checked(attr, distinct)
        if bad.any():
            row = int(np.argmax(bad[inverse]))
            faults.append((row, pos, _field_error(attr, distinct[inverse[row]])))
        parsed.append((values, distinct, inverse))
    if faults:
        row, _, reason = min(faults)
        raise DataError(f"row {row + 1}: {reason}")
    *qi, (_, sa_distinct, sa_inverse) = parsed
    if not len(sa_inverse):
        raise DataError("no rows")
    codes, sa_values = _intern_sa(sa_inverse, sa_distinct)
    # Sorting the parsed distinct values, not the rows, gives `qi_values`;
    # distinct strings that parse to one number ("1", "1.0") merge here.
    qi = [(_distinct_codes(values), inverse) for values, _, inverse in qi]
    return Table(schema, tuple(values for (values, _), _ in qi),
                 tuple(index[inverse] for (_, index), inverse in qi), codes, sa_values)


def table_from_rows(schema: DatasetSchema, rows: list[dict]) -> Table:
    """Validate raw rows (attribute name -> value) and build a Table.
    Categorical and SA values are read as their `str`."""
    columns = {}
    for attr in schema.attributes:
        col = [row.get(attr.name, _MISSING) for row in rows]
        if attr.kind == CATEGORICAL:
            col = [value if value is _MISSING else str(value) for value in col]
        interner = _Interner()
        interner.add(col)
        columns[attr.name] = interner.distinct()
    return _table_from_columns(schema, columns)


def _header_error(header: list[str] | None, schema: DatasetSchema) -> str | None:
    """Why a header row does not match the schema, if it does not."""
    if header is None:
        return "empty file"
    expected = {a.name for a in schema.attributes}
    missing = expected - set(header)
    if missing:
        return f"missing column(s) {sorted(missing)}"
    extra = set(header) - expected
    if extra:
        return f"unexpected column(s) {sorted(extra)}"
    if len(header) != len(expected):
        return f"duplicate column(s) {sorted({n for n in header if header.count(n) > 1})}"
    return None


def _intern_records(records, header: list[str]) -> tuple[dict[str, _Interner], tuple[int, str] | None]:
    """Intern non-blank records into one `_Interner` per header column, a
    block of `_BLOCK` records at a time, and the fault of a whole row, if
    any, as (row index, reason). Interning stops at the first record of
    another width than the header: a short one is padded with missing
    fields, a long one is the fault itself and is left out."""
    width = len(header)
    columns = {name: _Interner() for name in header}
    n_rows = 0
    while block := list(islice(records, _BLOCK)):
        whole = set(map(len, block)) == {width}
        row_error = None
        if not whole:
            bad = next(r for r, rec in enumerate(block) if len(rec) != width)
            rec = block[bad]
            if len(rec) > width:
                row_error = (n_rows + bad, f"expected {width} fields, got {len(rec)}")
                del block[bad:]
            else:
                block[bad:] = [rec + [_MISSING] * (width - len(rec))]
        for name, col in zip(header, zip(*block)):
            columns[name].add(col)
        if not whole:
            return columns, row_error
        n_rows += len(block)
    return columns, None


def _csv_columns(path: Path, schema: DatasetSchema) -> tuple[dict[str, tuple[list, np.ndarray]],
                                                             tuple[int, str] | None]:
    """The columns of any table file, read by `csv.reader` and interned as
    `_intern_records` does, and the fault of a whole row, if any; a CSV,
    decoding or header error, or a file without rows, is a DataError."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records = filter(None, reader)
            header_error = _header_error(header, schema)
            if header_error is None:
                columns, row_error = _intern_records(records, header)
            # A CSV or decoding error anywhere in the file ranks first.
            for _ in records:
                pass
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    if header_error is not None:
        raise DataError(f"{path}: {header_error}")
    if not columns[header[0]].n and row_error is None:
        raise DataError(f"{path}: no rows")
    # Each column's blocks are freed as soon as its codes are gathered.
    return {name: columns.pop(name).distinct() for name in header}, row_error


def load_table(path, schema: DatasetSchema) -> Table:
    """Read a comma-separated file with a header row matching the schema.

    Blank lines are skipped; rows are numbered from 1 over the others. A
    row with fewer fields than the header lacks its last columns; one with
    more is an error. Rows after the first of another width are not read
    into the table, but the file is still parsed to its end, so a CSV or
    decoding error anywhere in it is the error reported.

    A plain file is read with numpy and makes one Python string per
    distinct value, not per cell. Plain means: UTF-8, no quote, CR or NUL
    byte, a header the schema accepts, at least one row, no line blank or
    of another width than the header, and no field over `_MAX_FIELD` (64)
    bytes; a last line without a newline is allowed. Such a file is read
    `_CHUNK` bytes at a time, cut after the last newline. Each field
    becomes a key holding its bytes, one uint64 when no field of its
    column in the chunk is longer than 8 bytes, and each column's keys are
    interned chunk by chunk with `np.unique`. A numeric column's distinct
    keys of 1 to 8 ASCII digits are parsed in numpy (`_key_numbers`); only
    the other distinct keys are decoded to `str`. Any other file, and so
    every CSV, decoding, header or row-width error, goes through
    `csv.reader`, whose records are taken a block of `_BLOCK` at a time
    and interned into a dict, one dict operation per string. Either way
    each distinct value is then parsed and checked once, by the same code,
    and memory grows with the distinct values plus one code per cell.

    The SA codes are in the canonical order `Table` describes, whatever the
    file; a perturbed table is put in its published order by
    `load_perturbation`.
    """
    path = Path(path)
    columns, row_error = _plain_columns(path, schema), None
    if columns is None:
        columns, row_error = _csv_columns(path, schema)
    return _table_from_columns(schema, columns, row_error)


def _num(x: float) -> int | float:
    """An integral number as an int, so it is written without a fraction;
    any other as a float. Tables, schemas and releases write numbers so."""
    return int(x) if float(x).is_integer() else float(x)


# Rows per block written by `save_table`. A block of census rows takes
# about 0.5 MB of working arrays; blocks of 1,024 to 16,384 rows wrote 1M
# census rows within 15% of each other.
_WRITE_BLOCK = 4096

# The byte lanes of a uint64 word.
_LANES = np.arange(8)

# 10 to 10**18: a magnitude below 2**63 has one digit more than the number
# of these it reaches.
_TENS = np.array([10**k for k in range(1, 19)], dtype=np.uint64)


class _Lines(list):
    """A file for `csv.writer` that keeps each line written to it."""

    write = list.append


def _field_words(fields: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(words, sizes) of the fields: each zero-padded to whole uint64
    words and laid end to end, and each one's length in bytes."""
    sizes = np.fromiter(map(len, fields), dtype=np.int64, count=len(fields))
    widths = (8 * ((sizes + 7) // 8)).tolist()
    return np.frombuffer(b"".join(map(bytes.ljust, fields, widths, repeat(b"\0"))), dtype=np.uint64), sizes


def _integer_words(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """`_field_words` of `(str(int(x)) + sep).encode()` for each x of
    values, all integral and below 2**63 in magnitude, made in numpy with
    no Python string: the inverse of `_key_numbers`. The digits are taken
    right to left, from the magnitude as uint64, in place in the bytes.
    Only uint64 arrays and scalars meet in the arithmetic: numpy 1 turns
    int64 with uint64 into float64."""
    negative = values < 0
    q = values.astype(np.int64).view(np.uint64)
    np.negative(q, out=q, where=negative)
    digits = np.searchsorted(_TENS, q, side="right") + 1
    sizes = negative + digits + 1
    spans = (sizes + 7) // 8
    starts = 8 * (np.cumsum(spans) - spans)
    # Each field's last byte, its separator; its i-th digit from the
    # right is i bytes before it.
    lasts = starts + sizes - 1
    out = np.zeros(8 * int(spans.sum()), dtype=np.uint8)
    out[lasts] = ord(sep)
    out[starts[negative]] = ord("-")
    del spans, starts
    # Shortest first: the fields with an i-th digit follow those with
    # fewer digits, so each pass drops a prefix.
    order = np.argsort(digits.astype(np.uint8), kind="stable")
    q, lasts = q[order], lasts[order]
    ten, zero = np.uint64(10), np.uint8(ord("0"))
    for i, shorter in enumerate(np.bincount(digits)[:-1].tolist(), start=1):
        q, lasts = q[shorter:], lasts[shorter:]
        nq = q // ten
        out[lasts - i] = (q - nq * ten).astype(np.uint8) + zero
        q = nq
    return out.view(np.uint64), sizes


def _fields(table: Table) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per column in schema order, (words, sizes, codes): the column's
    distinct labels as the file holds them, UTF-8 with their comma or, in
    the last column, their newline, in `_field_words`' layout, and each
    row's index into them. A number is written as `str(_num(x))`, which
    holds no comma, quote or line break; an integral column's by
    `_integer_words`. Any other label is written as `csv.writer` writes a
    field, quoted if it holds a comma, a quote, a CR or an LF."""
    qi_idx = {a.name: k for k, a in enumerate(table.schema.qi_attributes)}
    last = len(table.schema.attributes) - 1
    columns = []
    for j, attr in enumerate(table.schema.attributes):
        sep = "\n" if j == last else ","
        if attr.role == SA:
            labels, codes = table.sa_values, table.sa_codes
        else:
            k = qi_idx[attr.name]
            codes = table.qi_codes[k]
            if attr.kind == NUMERIC:
                values = table.qi_values[k]
                # Integral values below 2**63 in magnitude are exact as int64s.
                if (np.abs(values) < 2**63).all() and (np.trunc(values) == values).all():
                    columns.append((*_integer_words(values, sep), codes))
                else:
                    columns.append((*_field_words([(str(_num(x)) + sep).encode() for x in values.tolist()]), codes))
                continue
            labels = [attr.hierarchy.leaves[v] for v in table.qi_values[k].tolist()]
        # A label then an empty field is written as the field, then ",\r\n".
        # With CR in the line terminator, `csv.writer` quotes a label that
        # holds a CR, as it quotes one that holds an LF.
        lines = _Lines()
        csv.writer(lines, lineterminator="\r\n").writerows([label, ""] for label in labels)
        columns.append((*_field_words([(line[:-3] + sep).encode() for line in lines]), codes))
    return columns


def save_table(table: Table, path) -> None:
    """Write the table as CSV, columns in schema order, with the bytes
    `csv.writer(lineterminator="\\r\\n")` writes for its rows, each line
    ended by LF in place of CRLF.

    Each column's distinct labels are formatted once (`_fields`), an
    integral numeric column's in numpy, with no Python string per number.
    The fields of all columns are zero-padded to whole uint64 words and
    laid end to end in one word array, beside a mask of the words' field
    bytes. A block of `_WRITE_BLOCK` rows gathers its fields' words and
    masks in file order by `Table.qi_codes` and `sa_codes`, drops the
    padding with the mask and goes to the file in one write. Memory is the
    distinct labels plus one block, whatever the number of rows.
    """
    path = Path(path)
    words, sizes, codes = zip(*_fields(table))
    # Column j's field c is field bases[j] + c of the table; field f starts
    # at word firsts[f] and spans spans[f] words.
    bases = np.cumsum([0, *map(len, sizes)]).tolist()
    words, sizes = np.concatenate(words), np.concatenate(sizes)
    spans = (sizes + 7) // 8
    firsts = np.cumsum(spans) - spans
    # The bytes of its field left from each word on.
    left = np.repeat(sizes + 8 * firsts, spans) - 8 * np.arange(len(words))
    masks = (_LANES < left[:, None]).view(np.uint64).ravel()
    del left
    wide = len(words) > len(spans)
    header = _Lines()
    csv.writer(header, lineterminator="\r\n").writerow([a.name for a in table.schema.attributes])
    with path.open("wb") as fh:
        fh.write((header[0][:-2] + "\n").encode())
        for start in range(0, table.n_rows, _WRITE_BLOCK):
            index = np.empty((min(_WRITE_BLOCK, table.n_rows - start), len(codes)), dtype=np.intp)
            for j, column in enumerate(codes):
                np.add(column[start:start + _WRITE_BLOCK], bases[j], out=index[:, j], dtype=np.intp)
            index = index.ravel()
            # With one word per field, its first word is its index; laying
            # out every field word by word made 1M census rows 60% slower.
            if wide:
                # Each field's words in turn: word i of field f is firsts[f] + i.
                span = spans[index]
                at = np.cumsum(span) - span
                index = np.repeat(firsts[index] - at, span)
                index += np.arange(len(index))
            fh.write(words[index].view(np.uint8)[masks[index].view(bool)])


def sa_distribution(table: Table) -> Distribution:
    """Overall SA distribution of a table in canonical code order."""
    counts = table.sa_counts()
    if (counts == 0).any() or any(a > b for a, b in zip(counts, counts[1:])):
        raise DataError(
            "table SA codes are not in canonical frequency order; "
            "only freshly loaded or generated tables have a distribution"
        )
    return Distribution(table.sa_values, tuple(int(c) for c in counts), table.n_rows)


def check_source(table: Table, dist: Distribution) -> None:
    """A DataError unless the table holds the SA values, in the same code
    order, and the counts that an artifact's distribution `dist` records, as
    the table it was made from does: the artifact's counts are read by the
    table's SA codes."""
    if table.n_rows != dist.total:
        raise DataError(f"table is not the artifact's source: its row count {table.n_rows} "
                        f"differs from the artifact's {dist.total}")
    if table.sa_values != dist.values or table.sa_counts().tolist() != list(dist.counts):
        raise DataError("table is not the artifact's source: its SA values or their counts "
                        "differ from the artifact's")


# ---------------------------------------------------------------------------
# Schema config files


def parse_schema(obj: dict) -> DatasetSchema:
    if not isinstance(obj, dict):
        raise DataError("schema: the document must be a JSON object")
    attrs = []
    for i, spec in enumerate(json_field(obj, "attributes", list, "schema", items=dict)):
        where = f"schema: attribute {i}"
        def optional(key, kind, default=None):
            return json_field(spec, key, kind, where) if key in spec else default
        hierarchy = None
        if "hierarchy" in spec:
            hierarchy = Hierarchy(spec["hierarchy"])
        attrs.append(
            Attribute(
                name=json_field(spec, "name", str, where),
                role=json_field(spec, "role", str, where),
                kind=optional("kind", str, CATEGORICAL),
                lo=optional("min", (int, float)),
                hi=optional("max", (int, float)),
                hierarchy=hierarchy,
                weight=optional("weight", (int, float)),
            )
        )
    return DatasetSchema(tuple(attrs))


def load_schema(path) -> DatasetSchema:
    return parse_schema(read_json(path))


def schema_to_obj(schema: DatasetSchema) -> dict:
    out = []
    for a in schema.attributes:
        spec: dict = {"name": a.name, "role": a.role, "kind": a.kind}
        if a.kind == NUMERIC:
            spec["min"], spec["max"] = _num(a.lo), _num(a.hi)
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


def census_like_profile(m: int = 50) -> np.ndarray:
    """Ascending frequency profile with census-like extremes, summing to 1.

    Three plateaus, the way salary-class marginals cluster: a small rare tier
    pinned at `CENSUS_MIN_FREQ`, a few top classes pinned at
    `CENSUS_MAX_FREQ`, and a dominant middle tier whose value is solved so
    the mass is exactly 1.
    """
    lo, hi = CENSUS_MIN_FREQ, CENSUS_MAX_FREQ
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
    # NaN fails the comparison; an infinite skew gives a valid, degenerate
    # profile.
    if not skew >= 0:
        raise DataError("skew must be >= 0")
    if sa_freqs is None:
        weights = np.arange(1, m + 1, dtype=float) ** -skew
        freqs = np.sort(weights / weights.sum())
    else:
        freqs = np.asarray(sa_freqs, dtype=float)
        # NaN fails both comparisons.
        if freqs.shape != (m,) or not ((freqs > 0).all() and abs(freqs.sum() - 1.0) <= 1e-9):
            raise DataError("sa_freqs must be m positive frequencies summing to 1")
        freqs = np.sort(freqs)
    counts = _apportion(freqs, n)

    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(m, dtype=code_dtype(m)), counts)
    rng.shuffle(codes)

    qi_spec = tuple(qi_spec) if qi_spec is not None else default_qi_spec()
    qi = []
    for k, attr in enumerate(qi_spec):
        if k == 0 and correlated:
            centers = (codes + 0.5) / m
            frac = np.clip(centers + _QI_JITTER * rng.standard_normal(n), 0.0, 1.0)
        else:
            frac = rng.random(n)
        # Each value is rint(lo + frac * width), computed in place; a
        # categorical axis spans its leaf indices [0, leaves - 1]. A range of
        # at most n integers is ranked by offsets from its least value.
        lo, width = (attr.lo, attr.hi - attr.lo) if attr.kind == NUMERIC else (0, attr.hierarchy.n_leaves - 1)
        frac *= width
        frac += lo
        np.rint(frac, out=frac)
        base = frac.min()
        radix = frac.max() - base + 1
        if radix <= n:
            frac -= base
            offsets, col_codes = _distinct_codes(frac.astype(code_dtype(int(radix))), radix)
            values = offsets + base
        else:
            values, col_codes = _distinct_codes(frac)
        qi.append((values if attr.kind == NUMERIC else values.astype(np.int64), col_codes))

    schema = DatasetSchema(qi_spec + (Attribute(sa_name, SA, CATEGORICAL),))
    raw_values = [f"v{i:03d}" for i in range(m)]
    interned, values = _intern_sa(codes, raw_values)
    return Table(schema, *zip(*qi), interned, values)
