"""Every artifact loader, fed one field or one byte changed: the command
exits 0, 1 or 3, an exit 1 prints one `error:` line and nothing else, and
no exception escapes `cli.run`.

One small set of artifacts is made once. Each example changes one key of
a release (read by `audit`), of `distribution.json` (read by `queryeval`)
or of the schema (read by `audit`): it deletes the key, or sets it to one
of `ODD_VALUES`. Or it changes one byte of `pm.txt` (read by `queryeval`).
The key is reached by a random walk from the document's root, which stops
at each level with even odds, so the few top-level keys are not drowned
out by the many keys inside the classes.

The release loader is also checked against a per-class reference: the
classes read in order by `_check_class`, one at a time. Each example changes
one key inside one class of a small release, and the loader must raise the
reference's error, or, when the reference finds none, no error that names a
class.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betalike as bl
from betalike.cli import EXIT_VIOLATION, run
from betalike.release import _check_class

ODD_VALUES = [None, True, False, 0, -1, 2**63, 1e308, 0.5, "", "x", [], {}]
DELETE = object()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    prefix = root / "t"
    common = ["--input", str(prefix.with_suffix(".csv")), "--schema", str(prefix.with_suffix(".schema.json"))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["gen-data", "--rows", "120", "--sa-size", "5", "--skew", "0.3", "--seed", "2",
                    "--out", str(prefix)]) == 0
        assert run(["generalize", *common, "--seed", "1", "--out", str(root / "release.json")]) == 0
        assert run(["perturb", *common, "--seed", "1", "--out", str(root / "pert")]) == 0
    return root


def _run(root, target: str) -> tuple[int, str, str]:
    """The command that reads `target`, its exit code, stdout and stderr."""
    common = ["--input", str(root / "t.csv"), "--schema", str(root / "t.schema.json")]
    if target in ("distribution", "pm"):
        args = ["queryeval", *common, "--artifact", str(root / "pert"), "--lambda", "1", "--queries", "5"]
    else:
        args = ["audit", *common, "--release", str(root / "release.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


def _mutate(doc, data, values=ODD_VALUES):
    """`doc` with one key, reached by a random walk, deleted or set to one of `values`."""
    parent = doc
    while True:
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        if not keys:
            return doc
        key = data.draw(st.sampled_from(keys))
        child = parent[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            parent = child
            continue
        value = data.draw(st.sampled_from([DELETE, *values]))
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = value
        return doc


FILES = {"release": "release.json", "distribution": "pert/distribution.json", "schema": "t.schema.json",
         "pm": "pert/pm.txt"}


@given(target=st.sampled_from(sorted(FILES)), data=st.data())
@settings(max_examples=250, deadline=None)
def test_one_changed_field_or_byte_is_an_artifact_or_one_error_line(artifacts, tmp_path_factory, target, data):
    work = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(artifacts, work, dirs_exist_ok=True)
    path = work / FILES[target]
    raw = path.read_bytes()
    if target == "pm":
        at = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:])
    else:
        path.write_text(json.dumps(_mutate(json.loads(raw), data)), encoding="utf-8")
    code, out, err = _run(work, target)
    assert code in (0, 1, EXIT_VIOLATION), err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def small_release(tmp_path_factory):
    """A saved 85-class release, its schema and its SA distribution."""
    table = bl.generate_synthetic(300, 7, seed=1)
    release = bl.generalize(table, 4.0, seed=1)
    path = tmp_path_factory.mktemp("release") / "release.json"
    bl.save_release(release, path)
    return path, table.schema, release.dist


def _reference_error(classes: list, path, qi, dist) -> str | None:
    """The first fault of the first faulty class, read one class at a time."""
    try:
        for k, cls in enumerate(classes):
            _check_class(cls, f"{path}: classes[{k}]", qi, dist)
    except bl.DataError as exc:
        return str(exc)
    return None


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_the_loader_names_the_class_the_per_class_reference_names(small_release, tmp_path_factory, data):
    source, schema, dist = small_release
    doc = json.loads(source.read_text(encoding="utf-8"))
    cls = data.draw(st.sampled_from(doc["classes"]))
    # Besides the walk, three faults no one key set to a fixed value makes.
    edit = data.draw(st.sampled_from(["walk", "walk", "walk", "unknown SA value", "float size", "empty"]))
    if edit == "walk":
        _mutate(cls, data, [*ODD_VALUES, 1, math.nan, math.inf])
    elif edit == "unknown SA value":
        cls["sa"]["not an SA value"] = 1
    elif edit == "float size":
        cls["size"] = float(cls["size"])
    else:
        cls["sa"], cls["size"] = {}, 0
    path = tmp_path_factory.mktemp("differential") / "release.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = _reference_error(doc["classes"], path, schema.qi_attributes, dist)
    try:
        bl.load_release(path, schema)
        error = None
    except bl.DataError as exc:
        error = str(exc)
    if expected is not None:
        assert error == expected
    else:
        # Only the file-level check of the class sums may still fail.
        assert error is None or error.startswith(f"{path}: field 'classes': counts of "), error
