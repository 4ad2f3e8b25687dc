"""`load_table` and `save_table` against the whole-file reader and writer
they replace: the same tables, the same error lines and the same bytes,
whichever block a row or chunk a byte falls in."""
from __future__ import annotations

import csv
import io
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betalike as bl
from betalike import data
from betalike.perturb import _in_published_order
from conftest import table_from_qi_columns, traced_peak

B = data._BLOCK


# ---------------------------------------------------------------------------
# The reference: the reader that held every record, then every column, at once.


def _reference_distinct(col: list) -> tuple[list, np.ndarray]:
    index = {value: i for i, value in enumerate(dict.fromkeys(col))}
    return list(index), np.fromiter(map(index.__getitem__, col), dtype=np.int64, count=len(col))


def _reference_from_columns(schema, columns, row_error=None):
    checked = (*schema.qi_attributes, schema.sa_attribute)
    n_rows = len(columns[checked[0].name])
    faults = [] if row_error is None else [(row_error[0], -1, row_error[1])]
    parsed = []
    for pos, attr in enumerate(checked):
        distinct, inverse = _reference_distinct(columns.pop(attr.name))
        values, bad = data._checked(attr, distinct)
        if bad.any():
            row = int(np.argmax(bad[inverse]))
            faults.append((row, pos, data._field_error(attr, distinct[inverse[row]])))
        parsed.append((values, distinct, inverse))
    if faults:
        row, _, reason = min(faults)
        raise bl.DataError(f"row {row + 1}: {reason}")
    if not n_rows:
        raise bl.DataError("no rows")
    *qi, (_, sa_distinct, sa_inverse) = parsed
    codes, sa_values = data._intern_sa(sa_inverse, sa_distinct)
    return table_from_qi_columns(schema, [values[inverse] for values, _, inverse in qi], codes, sa_values)


def reference_load(path, schema, sa_order=None):
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records = [rec for rec in reader if rec]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise bl.DataError(f"{path}: {exc}") from None
    if header is None:
        raise bl.DataError(f"{path}: empty file")
    expected = {a.name for a in schema.attributes}
    missing = expected - set(header)
    if missing:
        raise bl.DataError(f"{path}: missing column(s) {sorted(missing)}")
    extra = set(header) - expected
    if extra:
        raise bl.DataError(f"{path}: unexpected column(s) {sorted(extra)}")
    if len(header) != len(expected):
        raise bl.DataError(f"{path}: duplicate column(s) {sorted({n for n in header if header.count(n) > 1})}")
    if not records:
        raise bl.DataError(f"{path}: no rows")
    width = len(header)
    row_error = None
    if set(map(len, records)) != {width}:
        bad = next(r for r, rec in enumerate(records) if len(rec) != width)
        rec = records[bad]
        if len(rec) > width:
            row_error = (bad, f"expected {width} fields, got {len(rec)}")
            del records[bad:]
        else:
            records[bad:] = [rec + [data._MISSING] * (width - len(rec))]
    flat = list(chain.from_iterable(records))
    columns = {name: flat[j::width] for j, name in enumerate(header)}
    table = _reference_from_columns(schema, columns, row_error)
    if sa_order is None:
        return table
    unknown = set(table.sa_values) - set(sa_order)
    if unknown:
        raise bl.DataError(f"{path}: SA values {sorted(unknown)} not in the declared order")
    remap = np.asarray([sa_order.index(v) for v in table.sa_values], dtype=data.code_dtype(len(sa_order)))
    return replace(table, sa_codes=remap[table.sa_codes], sa_values=tuple(sa_order))


def reference_save(table, path):
    qi_idx = {a.name: k for k, a in enumerate(table.schema.qi_attributes)}
    columns = []
    for attr in table.schema.attributes:
        if attr.role == "sa":
            labels, codes = table.sa_values, table.sa_codes
        else:
            k = qi_idx[attr.name]
            values = table.qi_values[k].tolist()
            if attr.kind == "numeric":
                labels = [str(data._num(x)) for x in values]
            else:
                labels = [attr.hierarchy.leaves[v] for v in values]
            codes = table.qi_codes[k]
        columns.append(np.asarray(labels, dtype=object)[codes])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        # Each row as `csv.writer` writes it with a CRLF terminator, which
        # makes it quote a CR as it quotes an LF, then ended by an LF.
        line = io.StringIO()
        writer = csv.writer(line, lineterminator="\r\n")
        for row in chain([[a.name for a in table.schema.attributes]], zip(*columns)):
            line.seek(0)
            line.truncate()
            writer.writerow(row)
            fh.write(line.getvalue()[:-2] + "\n")


def _outcome(load, path, schema, sa_order=None):
    """The loaded table, or the error line."""
    try:
        return load(path, schema, sa_order)
    except bl.DataError as exc:
        return str(exc)


def _load_in_order(path, schema, sa_order=None):
    """`load_table`, then the published SA order `load_perturbation` applies."""
    table = bl.load_table(path, schema)
    return table if sa_order is None else _in_published_order(table, sa_order, path)


def assert_same_outcome(path, schema, sa_order=None):
    got = _outcome(_load_in_order, path, schema, sa_order)
    want = _outcome(reference_load, path, schema, sa_order)
    if isinstance(want, str):
        assert got == want
        return want
    assert isinstance(got, bl.Table), got
    assert got.schema == want.schema and got.sa_values == want.sa_values
    for a, b in zip((*got.qi_columns, got.sa_codes), (*want.qi_columns, want.sa_codes), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


# ---------------------------------------------------------------------------
# Faults on the last row of a block, the first of the next, and the last row.

_COLORS = bl.Hierarchy({"name": "c", "children": ["red", "blue"]})


def _schema():
    return bl.DatasetSchema((
        bl.Attribute("age", "qi", "numeric", lo=0, hi=99),
        bl.Attribute("color", "qi", hierarchy=_COLORS),
        bl.Attribute("kind", "sa"),
    ))


HEADER = b"age,color,kind\n"
N = 2 * B + 5
GOOD = [f"{i % 90},{('red', 'blue')[i % 2]},k{i % 7}".encode() for i in range(N)]

# Each fault replaces the record at its row; "blank-lines" puts blank lines
# before an out-of-domain value, so the row numbers skip them.
FAULTS = {
    "bad-number": b"x,red,k0",
    "out-of-domain": b"200,red,k0",
    "unknown-leaf": b"5,green,k0",
    "short-row": b"5,red",
    "long-row": b"5,red,k0,extra",
    "not-utf-8": b"5,red,k\xff",
    "not-utf-8-number": b"5\xff,red,k0",
    "oversized-field": b'5,red,"' + b"x" * 200_000 + b'"',
    "blank-lines": b"\n\n\n200,red,k0",
}
POSITIONS = {"last-of-block": B - 1, "first-of-next": B, "end-of-file": N - 1}


def _write(path, records, header=HEADER):
    path.write_bytes(header + b"\n".join(records) + b"\n")
    return path


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_at_block_boundary(tmp_path, fault, where):
    row = POSITIONS[where]
    records = GOOD.copy()
    records[row] = FAULTS[fault]
    message = assert_same_outcome(_write(tmp_path / "t.csv", records), _schema())
    assert isinstance(message, str)
    if fault not in ("not-utf-8", "not-utf-8-number", "oversized-field"):
        assert message.startswith(f"row {row + 1}: ")


# (faults by row, the fault that wins): the earliest row wins, a row's shape
# before its values, and a CSV or decoding error anywhere before all else.
SEVERAL = {
    "short-row-hides-later-rows": ({B - 1: "short-row", B: "bad-number", N - 1: "long-row"},
                                   f"row {B}: missing column 'kind'"),
    "long-row-beats-later-value": ({B - 1: "long-row", B: "bad-number"}, f"row {B}: expected 3 fields, got 4"),
    "earlier-value-beats-long-row": ({B - 1: "unknown-leaf", B: "long-row"},
                                     f"row {B}: unknown color value 'green'"),
    "csv-error-after-long-row": ({B - 1: "long-row", N - 1: "oversized-field"}, "field larger"),
    "decode-error-after-short-row": ({B: "short-row", N - 1: "not-utf-8"}, "can't decode"),
    "csv-error-after-value": ({0: "bad-number", B: "oversized-field"}, "field larger"),
}


@pytest.mark.parametrize("case", SEVERAL)
def test_first_fault_wins_across_blocks(tmp_path, case):
    faults, expected = SEVERAL[case]
    records = GOOD.copy()
    for row, fault in faults.items():
        records[row] = FAULTS[fault]
    message = assert_same_outcome(_write(tmp_path / "t.csv", records), _schema())
    assert expected in message


@pytest.mark.parametrize("header, fault", [
    (b"age,age,color,kind\n", "oversized-field"),
    (b"age,color\n", "not-utf-8"),
    (b"age,color,kind,zip\n", None),
], ids=["duplicate-column-then-csv-error", "missing-column-then-decode-error", "extra-column"])
def test_read_errors_beat_header_errors(tmp_path, header, fault):
    records = GOOD.copy()
    if fault is not None:
        records[N - 1] = FAULTS[fault]
    message = assert_same_outcome(_write(tmp_path / "t.csv", records, header), _schema())
    assert ("column(s)" in message) == (fault is None)


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B])
def test_tables_whole_blocks_and_partial(tmp_path, n):
    records = [b"\n" * (i % 3 == 0) + r for i, r in enumerate(GOOD[:n])]
    table = assert_same_outcome(_write(tmp_path / "t.csv", records), _schema())
    assert table.n_rows == n


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_at_block_boundary_in_small_chunks(tmp_path, monkeypatch, fault, where):
    monkeypatch.setattr(data, "_CHUNK", 64)
    test_fault_at_block_boundary(tmp_path, fault, where)


# ---------------------------------------------------------------------------
# Small generated files read in blocks of 2 or 3 records.

_FIELDS = {
    "age": st.sampled_from(["1", "50", " 7 ", "1e1", "99", "200", "-0", "x", "", "nan"]),
    "color": st.sampled_from(["red", "blue", "green", "", "red "]),
    "kind": st.text(st.sampled_from('ab ,"\n'), max_size=4),
}
_HEADERS = [["age", "color", "kind"], ["kind", "age", "color"], ["age", "color"],
            ["age", "age", "color", "kind"], ["age", "color", "kind", "zip"]]


@st.composite
def _csv_files(draw):
    header = draw(st.sampled_from(_HEADERS[:2] * 3 + _HEADERS[2:]))
    valid = st.tuples(*(st.sampled_from(["5", "60", "99"]) if name == "age"
                        else st.sampled_from(["red", "blue"]) if name == "color"
                        else st.sampled_from(["a", "b", '"q,"']) for name in header)).map(list)
    wild = st.lists(st.one_of(*_FIELDS.values()), max_size=len(header) + 2)
    records = draw(st.lists(st.one_of(valid, valid, valid, wild), max_size=12))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        # An empty record is written as a blank line, which the reader skips.
        writer.writerow(rec)
    return out.getvalue()


@given(text=_csv_files(), block=st.sampled_from([2, 3]),
       sa_order=st.sampled_from([None, ("a", "b", '"q,"'), ("a",)]))
@settings(max_examples=300, deadline=None)
def test_small_blocks_read_like_the_whole_file(tmp_path_factory, text, block, sa_order):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK", block)
        assert_same_outcome(path, _schema(), sa_order)


# ---------------------------------------------------------------------------
# Plain files, read by the numpy path in chunks of a few bytes, and files
# one change away from plain, which `csv.reader` reads.

_LABELS = ["b", "8 bytes!", "9 bytes!!", "forty bytes " * 3 + "long", "ünï", "日本語"]
NEAR_PLAIN = ["no-final-newline", "blank-line", "short-row", "long-row", "crlf", "quote", "invalid-utf-8",
              "long-field"]


def _label_schema():
    return bl.DatasetSchema((
        bl.Attribute("age", "qi", "numeric", lo=0, hi=99),
        bl.Attribute("label", "qi", hierarchy=bl.Hierarchy({"name": "any", "children": _LABELS})),
        bl.Attribute("kind", "sa"),
    ))


# Bad values are rare, so most files load and a lost or changed row shows.
_PLAIN_FIELDS = {
    "age": st.sampled_from(["5", "60", " 7", "1e1", "99", "-0"] * 10 + ["99.5", "x", ""]),
    "label": st.sampled_from(_LABELS * 10 + ["nope"]),
    # Empty, 8-, 9- and 40-byte fields, multibyte UTF-8, and characters that
    # end a line for `str.splitlines` but not for `csv`.
    "kind": st.one_of(st.sampled_from(["", "k", "8 bytes!", "9 bytes!!", "z" * 40, "é", "\x0b", "a\x85b", "\u2028"]),
                      st.text(st.sampled_from("ab é日\x1c"), max_size=10)),
}


@st.composite
def _plain_files(draw):
    """(bytes, fault): a plain table file, or one made near-plain by `fault`."""
    header = draw(st.permutations(["age", "label", "kind"]))
    rows = draw(st.lists(st.fixed_dictionaries(_PLAIN_FIELDS), min_size=1, max_size=20))
    lines = [",".join(row[name] for name in header).encode() for row in rows]
    fault = draw(st.sampled_from([None] * len(NEAR_PLAIN) + NEAR_PLAIN))
    at = draw(st.integers(0, len(lines) - 1))
    cut = draw(st.integers(0, len(lines[at])))
    if fault == "blank-line":
        lines.insert(at, b"")
    elif fault == "short-row":
        lines[at] = lines[at].rpartition(b",")[0]
    elif fault == "long-row":
        lines[at] += b",x"
    elif fault == "crlf":
        lines[at] += b"\r"
    elif fault == "long-field":
        lines[at] += b"y" * (data._MAX_FIELD + 1)
    elif fault in ("quote", "invalid-utf-8"):
        lines[at] = lines[at][:cut] + (b'"' if fault == "quote" else b"\xff") + lines[at][cut:]
    end = b"" if fault == "no-final-newline" else b"\n"
    return b"\n".join([",".join(header).encode(), *lines]) + end, fault


@given(file=_plain_files(), chunk=st.sampled_from([1, 5, 8, 9, 64]))
@settings(max_examples=300, deadline=None)
def test_plain_files_in_small_chunks_read_like_the_whole_file(tmp_path_factory, file, chunk):
    text, fault = file
    path = tmp_path_factory.mktemp("plain") / "t.csv"
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CHUNK", chunk)
        plain = data._plain_columns(path, _label_schema()) is not None
        assert plain == (fault in (None, "no-final-newline"))
        assert_same_outcome(path, _label_schema())


@pytest.mark.parametrize("chunk", [64, data._CHUNK])
@pytest.mark.parametrize("field, limit", [("x" * 200_000, None), ("é" * 70_000, None), ("x" * 20, 16), ("é" * 10, 16)],
                         ids=["past-the-limit", "multibyte-within-it", "past-a-low-limit", "multibyte-within-a-low-limit"])
def test_plain_field_against_the_csv_field_limit(tmp_path, monkeypatch, chunk, field, limit):
    """The `csv` limit counts characters; a plain field with more bytes than
    it goes to `csv.reader`, which refuses it only if it has more characters."""
    records = GOOD.copy()
    records[B] = f"5,red,{field}".encode()
    monkeypatch.setattr(data, "_CHUNK", chunk)
    default = csv.field_size_limit()
    try:
        csv.field_size_limit(limit or default)
        outcome = assert_same_outcome(_write(tmp_path / "t.csv", records), _schema())
        assert isinstance(outcome, str) == (len(field) > csv.field_size_limit())
    finally:
        csv.field_size_limit(default)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was asked to read a file the program wrote")


@pytest.mark.parametrize("chunk", [4096, data._CHUNK])
@pytest.mark.parametrize("case", ["zip", "perturbed", "long-labels"])
def test_written_files_take_the_plain_path(tmp_path, monkeypatch, case, chunk):
    labels = bl.Hierarchy({"name": "any", "children": [{"name": "non-ascii", "children": ["ä", "日本語ラベル"]},
                                                       {"name": "long", "children": _LABELS[2:4]}]})
    qi_spec = bl.default_qi_spec() + ((bl.Attribute("label", "qi", hierarchy=labels),) if case == "long-labels"
                                      else (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),))
    source = bl.generate_synthetic(3000, 50, qi_spec=qi_spec, seed=4, sa_freqs=bl.census_like_profile(50))
    if case == "perturbed":
        model = bl.build_model(bl.sa_distribution(source), 2.0)
        source = bl.perturb(source, model, seed=3)
        bl.save_perturbation(tmp_path / "p", source, model, seed=3)
    else:
        bl.save_table(source, tmp_path / "t.csv")
    monkeypatch.setattr(data, "_CHUNK", chunk)
    monkeypatch.setattr(csv, "reader", _no_csv_reader)
    if case == "perturbed":
        table, _ = bl.load_perturbation(tmp_path / "p", source.schema)
    else:
        table = bl.load_table(tmp_path / "t.csv", source.schema)
    assert table.schema == source.schema and table.sa_values == source.sa_values
    for a, b in zip((*table.qi_columns, table.sa_codes), (*source.qi_columns, source.sa_codes), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# A written file with one byte replaced, inserted or deleted.


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """Two files `save_table` wrote: a plain one, and one whose SA labels
    are quoted, which `csv.reader` reads."""
    rng = np.random.default_rng(8)
    n = 12
    files = {}
    for name, sa_values in (("plain", ("k", "é", "", "x y")), ("quoted", ("k", "é", "p, q", 'say "hi"'))):
        table = table_from_qi_columns(_label_schema(), (rng.integers(0, 100, n).astype(float),
                                                       rng.integers(0, len(_LABELS), n)),
                                      rng.integers(0, 4, n), sa_values)
        path = tmp_path_factory.mktemp("written") / "t.csv"
        bl.save_table(table, path)
        assert (data._plain_columns(path, table.schema) is not None) == (name == "plain")
        files[name] = path.read_bytes()
    return files


_BYTES = st.one_of(st.sampled_from(b',"\r\n\0\xff'), st.integers(0, 127))


@given(name=st.sampled_from(["plain", "quoted"]), edit=st.sampled_from(["replace", "insert", "delete"]),
       at=st.integers(0, 1 << 16), byte=_BYTES)
@settings(max_examples=300, deadline=None)
def test_written_file_with_one_byte_changed_reads_like_the_reference(tmp_path_factory, written_files, name, edit,
                                                                      at, byte):
    text = written_files[name]
    i = at % (len(text) + (edit == "insert"))
    new = bytes([byte])
    text = {"replace": text[:i] + new + text[i + 1:], "insert": text[:i] + new + text[i:],
            "delete": text[:i] + text[i + 1:]}[edit]
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(text)
    assert_same_outcome(path, _label_schema())


# ---------------------------------------------------------------------------
# Numeric fields: the plain path parses 1 to 8 ASCII digits from their keys
# and sends any other field through `float()`, as `csv.reader`'s path does.

DIGIT_FIELDS = ["0", "7", "42", "007", "0000", "12345", "0099999", "00000000", "99999999", "10000001"]
FALLBACK_FIELDS = [" 7", "7 ", "+5", "-3", "1.5", "1e3", "1_0", "inf", "nan", "٣", "123456789", "0000000001"]
# "/" and ":" are the bytes on either side of the ASCII digits.
NOT_NUMBERS = ["x", "", "7x", "1.2.3", "٣x", "--1", "/3", "3:"]


def _number_schema(hi):
    return bl.DatasetSchema((bl.Attribute("n", "qi", "numeric", lo=-5, hi=hi), bl.Attribute("kind", "sa")))


@pytest.mark.parametrize("hi", [1e8, 99], ids=["wide-domain", "narrow-domain"])
@pytest.mark.parametrize("reader", ["plain", "csv"])
@pytest.mark.parametrize("field", DIGIT_FIELDS + FALLBACK_FIELDS + NOT_NUMBERS)
def test_number_fields_read_as_float_reads_them(tmp_path, field, reader, hi):
    """A field on row 4 of 6: the table the reference reader builds, or its
    error line with the row number."""
    records = [f"{n},k{n % 2}".encode() for n in (3, 14, 15)]
    records.insert(3, f"{field},k0".encode())
    records += [b"92,k1", b"6,k0"]
    # A quoted header name sends the file to `csv.reader`.
    header = b"n,kind\n" if reader == "plain" else b'n,"kind"\n'
    path = _write(tmp_path / "t.csv", records, header)
    schema = _number_schema(hi)
    assert (data._plain_columns(path, schema) is not None) == (reader == "plain")
    outcome = assert_same_outcome(path, schema)
    try:
        number = float(field)
    except ValueError:
        assert outcome == f"row 4: cannot parse n={field!r} as a number"
        return
    if -5 <= number <= hi:
        assert outcome.qi_columns[0][3] == number
    else:
        assert outcome == f"row 4: n={number:g} outside domain [-5, {hi:g}]"


@pytest.mark.parametrize("chunk", [64, data._CHUNK])
def test_digit_fields_of_every_length(tmp_path, monkeypatch, chunk):
    """Random digit strings of 1 to 8 bytes, most with leading zeros, read
    like the reference; one 9-digit field in the last chunk widens the
    column's keys past a word."""
    rng = np.random.default_rng(5)
    fields = ["".join(map(str, rng.integers(0, 10, rng.integers(1, 9)))) for _ in range(3000)]
    records = [f"{field},k{i % 3}".encode() for i, field in enumerate(fields)]
    path = _write(tmp_path / "t.csv", records, b"n,kind\n")
    wide = _write(tmp_path / "wide.csv", [*records, b"012345678,k0"], b"n,kind\n")
    monkeypatch.setattr(data, "_CHUNK", chunk)
    for file in (path, wide):
        table = assert_same_outcome(file, _number_schema(1e8))
        assert table.qi_columns[0][:3000].tolist() == list(map(float, fields))


# ---------------------------------------------------------------------------
# Memory and the writer.


def test_load_peak_is_a_few_times_the_table(tmp_path):
    source = bl.generate_synthetic(200_000, 50, seed=2, sa_freqs=bl.census_like_profile(50))
    path = tmp_path / "census.csv"
    bl.save_table(source, path)
    peak = traced_peak(bl.load_table, path, source.schema)
    # The bytes of the float64 QI columns and int64 SA codes the table held
    # before it kept only narrow codes.
    arrays = 8 * source.n_rows * (len(source.qi_codes) + 1)
    assert peak <= 4 * arrays, (peak, arrays)


def test_load_peak_on_a_zip_table(tmp_path):
    """A high-cardinality column: 86,444 distinct zip codes in 200k rows."""
    qi_spec = bl.default_qi_spec() + (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),)
    source = bl.generate_synthetic(200_000, 50, qi_spec=qi_spec, seed=2, sa_freqs=bl.census_like_profile(50))
    path = tmp_path / "zip.csv"
    bl.save_table(source, path)
    peak = traced_peak(bl.load_table, path, source.schema)
    arrays = 8 * source.n_rows * (len(source.qi_codes) + 1)
    assert peak <= 2 * arrays, (peak, arrays)


def test_table_is_a_byte_per_cell_plus_its_distinct_values(tmp_path):
    source = bl.generate_synthetic(200_000, 50, seed=2, sa_freqs=bl.census_like_profile(50))
    path = tmp_path / "census.csv"
    bl.save_table(source, path)
    for table in (source, bl.load_table(path, source.schema)):
        distinct = sum(values.nbytes for values in table.qi_values)
        arrays = distinct + sum(codes.nbytes for codes in table.qi_codes) + table.sa_codes.nbytes
        assert arrays <= table.n_rows * (len(table.qi_codes) + 1) + distinct


def _zip_table(n):
    return bl.generate_synthetic(n, 7, seed=6, qi_spec=bl.default_qi_spec()
                                 + (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),))


def _assert_saved_in_blocks_like_the_reference(tmp_path, monkeypatch, table, block):
    reference_save(table, tmp_path / "ref.csv")
    monkeypatch.setattr(data, "_WRITE_BLOCK", block)
    bl.save_table(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Each block size, the default too, cuts the table mid-block.
BLOCKS = [1, 3, 64, data._WRITE_BLOCK]


@pytest.mark.parametrize("block", BLOCKS)
def test_save_in_blocks_writes_the_whole_table_bytes(tmp_path, monkeypatch, block):
    _assert_saved_in_blocks_like_the_reference(tmp_path, monkeypatch, _zip_table(data._WRITE_BLOCK + 300), block)


@pytest.mark.parametrize("block", BLOCKS)
def test_save_in_blocks_lays_out_fields_of_several_words(tmp_path, monkeypatch, block):
    table = replace(_zip_table(data._WRITE_BLOCK + 300),
                    sa_values=("9 bytes!!", "", "forty bytes " * 3 + "long", "p, q", "k", "é" * 9, "x,\n"))
    _assert_saved_in_blocks_like_the_reference(tmp_path, monkeypatch, table, block)


# Numbers with long or exact forms, and labels of the bytes that `csv`
# quotes, doubles or passes through, empty, spaced, and of 9 and 40 bytes.
_NUMBERS = st.one_of(st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 2.0**53, 2.0**63, 1e16, 1e300, -1e300]),
                     st.integers(-3, 12).map(float))
_ALPHABET = st.sampled_from(',"\r\n\0\x0b\x85\u2028é日 a')
_TEXT_LABELS = st.one_of(st.text(_ALPHABET, max_size=6), st.text(_ALPHABET, min_size=9, max_size=9),
                         st.sampled_from(["", " lead", "trail ", " both ", "9 bytes!!", "forty bytes " * 3 + "long"]),
                         st.text(_ALPHABET, min_size=40, max_size=40))


@st.composite
def _tables(draw):
    """A table of 1 to 30 rows: two numeric QI columns, a categorical QI
    column and an SA column over drawn labels, in a drawn column order."""
    n = draw(st.integers(1, 30))
    leaves = draw(st.lists(_TEXT_LABELS, min_size=1, max_size=6, unique=True))
    sa_values = draw(st.lists(_TEXT_LABELS, min_size=1, max_size=6, unique=True))
    attrs = [bl.Attribute("x", "qi", "numeric", lo=-1e300, hi=1e300),
             bl.Attribute("leaf", "qi", hierarchy=bl.Hierarchy({"name": "any", "children": leaves})),
             bl.Attribute("y", "qi", "numeric", lo=-1e300, hi=1e300),
             bl.Attribute("s", "sa")]
    schema = bl.DatasetSchema(tuple(draw(st.permutations(attrs))))
    columns = {"x": draw(st.lists(_NUMBERS, min_size=n, max_size=n)),
               "leaf": draw(st.lists(st.integers(0, len(leaves) - 1), min_size=n, max_size=n)),
               "y": draw(st.lists(_NUMBERS, min_size=n, max_size=n))}
    sa = draw(st.lists(st.integers(0, len(sa_values) - 1), min_size=n, max_size=n))
    return table_from_qi_columns(schema, [columns[a.name] for a in schema.qi_attributes], sa, sa_values)


@given(table=_tables(), block=st.integers(1, 32))
@settings(max_examples=200, deadline=None)
def test_saved_bytes_are_the_row_writers(tmp_path_factory, table, block):
    path = tmp_path_factory.mktemp("save")
    reference_save(table, path / "ref.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_WRITE_BLOCK", block)
        bl.save_table(table, path / "t.csv")
    assert (path / "t.csv").read_bytes() == (path / "ref.csv").read_bytes()


def _cells(table):
    """Each row's QI values and SA label, column by column."""
    return [col.tolist() for col in table.qi_columns], [table.sa_values[c] for c in table.sa_codes.tolist()]


@given(table=_tables())
@settings(max_examples=100, deadline=None)
def test_saved_tables_load_back(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("save") / "t.csv"
    bl.save_table(table, path)
    assert _cells(bl.load_table(path, table.schema)) == _cells(table)


def test_labels_and_names_with_a_cr_are_quoted_and_load_back(tmp_path):
    leaves = ["p\rq", "p\r\nq", "\r", "plain"]
    schema = bl.DatasetSchema((bl.Attribute("x\ry", "qi", "numeric", lo=0, hi=9),
                               bl.Attribute("leaf", "qi", hierarchy=bl.Hierarchy({"name": "any", "children": leaves})),
                               bl.Attribute("s\r", "sa")))
    sa_values = ("a\rb", "\rc", "d\r", "e\n\rf", "g")
    table = table_from_qi_columns(schema, ([1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 2, 3, 0]), [0, 1, 2, 3, 4], sa_values)
    path = tmp_path / "t.csv"
    bl.save_table(table, path)
    assert path.read_bytes().split(b"\n", 1)[0] == b'"x\ry",leaf,"s\r"'
    assert b'1,"p\rq","a\rb"\n' in path.read_bytes()
    assert _cells(bl.load_table(path, schema)) == _cells(table)


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, 1.0, -1.0, -12345.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**62, 2.0**63 - 1024],
    [-0.0, 0.5, 1.0, -2.25, 2.0**53],
    [0.0, 2.0**63, -(2.0**63)],
    [1.0, 1e300, -1e300],
])
def test_numbers_write_as_their_python_forms(tmp_path, values):
    """Integral columns below 2**63 print from int64s; the bytes are
    `str(_num(x))`'s either way."""
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=-1e300, hi=1e300), bl.Attribute("s", "sa")))
    table = table_from_qi_columns(schema, (values,), [0] * len(values), ("a",))
    reference_save(table, tmp_path / "ref.csv")
    bl.save_table(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"-0," not in (tmp_path / "t.csv").read_bytes()


def test_save_peak_does_not_grow_with_rows(tmp_path):
    peaks = [traced_peak(bl.save_table, bl.generate_synthetic(n, 50, seed=2, sa_freqs=bl.census_like_profile(50)),
                         tmp_path / "t.csv")
             for n in (200_000, 1_000_000)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_save_peak_with_one_long_label(tmp_path):
    """1,000 short leaves and one of 100,000 bytes, which about one row per
    block holds: no field is padded to the longest label's width."""
    leaves = [f"leaf {i}" for i in range(1000)] + ["x" * 100_000]
    schema = bl.DatasetSchema((bl.Attribute("age", "qi", "numeric", lo=0, hi=99),
                               bl.Attribute("leaf", "qi", hierarchy=bl.Hierarchy({"name": "any", "children": leaves})),
                               bl.Attribute("kind", "sa")))
    rng = np.random.default_rng(1)
    n = 100_000
    leaf = rng.integers(0, 1000, n)
    leaf[::5000] = 1000
    table = table_from_qi_columns(schema, (rng.integers(0, 100, n).astype(float), leaf), rng.integers(0, 3, n),
                                  ("a", "b", "c"))
    path = tmp_path / "t.csv"
    peak = traced_peak(bl.save_table, table, path)
    reference_save(table, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    distinct = sum(len(label.encode()) for label in leaves)
    rows = path.read_bytes().split(b"\n")[1:-1]
    block = max(sum(map(len, rows[i:i + data._WRITE_BLOCK])) + len(rows[i:i + data._WRITE_BLOCK])
                for i in range(0, n, data._WRITE_BLOCK))
    # The formatted labels, their words and masks, and a block's word
    # indices, words, masks and bytes: 1.2 MB, 4.9 times the sum, here.
    assert peak <= 6 * (distinct + block), (peak, distinct, block)
