from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betalike as bl
from betalike import queries
from betalike.cli import EXIT_BROKEN_PIPE, EXIT_VIOLATION, run

from conftest import disease_table, patient_schema


@pytest.fixture()
def example_files(tmp_path):
    table = disease_table()
    csv = tmp_path / "patients.csv"
    schema = tmp_path / "patients.schema.json"
    bl.save_table(table, csv)
    bl.save_schema(table.schema, schema)
    return csv, schema


def test_gen_data_writes_loadable_files(tmp_path, capsys):
    out = tmp_path / "synth"
    assert run([
        "gen-data", "--rows", "500", "--sa-size", "8", "--skew", "0.5",
        "--seed", "3", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "rows=500" in printed
    schema = bl.load_schema(out.with_suffix(".schema.json"))
    table = bl.load_table(out.with_suffix(".csv"), schema)
    assert table.n_rows == 500 and table.m == 8


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-data", "--rows", "200", "--sa-size", "5",
                    "--skew", "0.3", "--seed", "11", "--out", str(out)]) == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


def _token(line: str, key: str) -> str:
    return line.split(f"{key}=")[1].split()[0]


def _largest_required_beta(out: str) -> str:
    """The largest required_beta= token on the audit's class lines."""
    tokens = [_token(line, "required_beta") for line in out.splitlines() if line.startswith("ec=")]
    return max(tokens, key=lambda t: math.inf if t == "unbounded" else float(t))


def test_generalize_and_audit(example_files, tmp_path, capsys):
    csv, schema = example_files
    release = tmp_path / "release.json"
    assert run([
        "generalize", "--input", str(csv), "--schema", str(schema),
        "--beta", "2", "--seed", "7", "--out", str(release),
    ]) == 0
    out = capsys.readouterr().out
    assert "classes=3" in out
    assert "achieved_beta=" in out
    loaded = bl.load_release(release, bl.load_schema(schema))
    assert sorted(ec.size for ec in loaded.ecs) == [4, 5, 10]

    assert run([
        "audit", "--release", str(release),
        "--input", str(csv), "--schema", str(schema),
    ]) == 0
    audit_out = capsys.readouterr().out
    assert "achieved_beta=" in audit_out
    assert "classifier_accuracy=" in audit_out
    achieved = _token(audit_out, "achieved_beta")
    assert float(achieved) <= 2.0
    # generalize and audit print the same achieved beta: the largest required beta of the classes.
    assert _token(out, "achieved_beta") == achieved == _largest_required_beta(audit_out)


def test_generalize_byte_identical_reruns(example_files, tmp_path):
    csv, schema = example_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run([
            "generalize", "--input", str(csv), "--schema", str(schema),
            "--beta", "2", "--seed", "5", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_perturb_and_queryeval(example_files, tmp_path, capsys):
    csv, schema = example_files
    outdir = tmp_path / "pert"
    assert run([
        "perturb", "--input", str(csv), "--schema", str(schema),
        "--beta", "2", "--seed", "1", "--out", str(outdir),
    ]) == 0
    assert (outdir / "perturbed.csv").exists()
    assert (outdir / "pm.txt").exists()
    assert (outdir / "distribution.json").exists()
    capsys.readouterr()

    assert run([
        "queryeval", "--input", str(csv), "--schema", str(schema),
        "--artifact", str(outdir), "--lambda", "1", "--theta", "0.4",
        "--queries", "50", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "estimator=perturbed" in out
    assert "estimator=baseline" in out
    assert "median_relative_error=" in out


# sha256 of the perturbed and baseline report files. The baseline digests
# are those each workload_report_* function wrote on its own, computing the
# precise counts twice; the perturbed ones come from the closed-form
# reconstruction, whose estimates differ from a dense LU solve's by at most
# 6.5e-16 relative on these workloads.
QUERYEVAL_REPORTS = {
    "cube": ("0ba7be4b14ef7ee72abb2f399c6bd8210b1df0dc7f7ab1ebacfb5d38cc273ddb",
             "9bfcb99ddbd97a459bd27218d3c245facc15b46a5db5a035d1ca12ac6e3dfea0"),
    "row-masks": ("44e251d07ea850493e490d734b65c6132f22232165a8bfe156e0c1b57d6b4ffe",
                  "39e0449dc5fd7bca359082152e7ed2c3208ac2ca7ddbd1121b0bd05176c816be"),
}


@pytest.mark.parametrize("counting", QUERYEVAL_REPORTS)
def test_queryeval_on_a_perturbation_counts_once(tmp_path, monkeypatch, capsys, counting):
    # A zip code puts the table past the cube's cell budget: the row path
    # (`Table.rows_by_sa`) counts it.
    zip_qi = (bl.Attribute("zip", "qi", "numeric", lo=0, hi=99999),) if counting == "row-masks" else ()
    table = bl.generate_synthetic(3000, 20, qi_spec=bl.default_qi_spec() + zip_qi, seed=5, skew=0.5)
    csv, schema = tmp_path / "t.csv", tmp_path / "t.schema.json"
    bl.save_table(table, csv)
    bl.save_schema(table.schema, schema)
    common = ["--input", str(csv), "--schema", str(schema)]
    assert run(["perturb", *common, "--beta", "4", "--seed", "2", "--out", str(tmp_path / "p")]) == 0
    calls = []
    counts = queries._workload_counts
    monkeypatch.setattr(queries, "_workload_counts", lambda *a: calls.append(1) or counts(*a))
    assert run(["queryeval", *common, "--artifact", str(tmp_path / "p"), "--queries", "60",
                "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1
    digests = tuple(hashlib.sha256((tmp_path / f"r.{name}.csv").read_bytes()).hexdigest()
                    for name in ("perturbed", "baseline"))
    assert digests == QUERYEVAL_REPORTS[counting]


def test_queryeval_on_release(example_files, tmp_path, capsys):
    csv, schema = example_files
    release = tmp_path / "release.json"
    run(["generalize", "--input", str(csv), "--schema", str(schema),
         "--beta", "2", "--seed", "7", "--out", str(release)])
    capsys.readouterr()
    assert run([
        "queryeval", "--input", str(csv), "--schema", str(schema),
        "--artifact", str(release), "--lambda", "2", "--theta", "0.3",
        "--queries", "40", "--seed", "4", "--out", str(tmp_path / "rep"),
    ]) == 0
    out = capsys.readouterr().out
    assert "estimator=generalized" in out
    report = (tmp_path / "rep.generalized.csv").read_text()
    assert report.startswith("query,prec,est,relative_error")


def test_queryeval_report_estimates_are_numbers(example_files, tmp_path):
    csv, schema = example_files
    common = ["--input", str(csv), "--schema", str(schema)]
    assert run(["generalize", *common, "--beta", "2", "--seed", "7", "--out", str(tmp_path / "g.json")]) == 0
    assert run(["perturb", *common, "--beta", "2", "--seed", "1", "--out", str(tmp_path / "p")]) == 0
    for artifact in ("g.json", "p"):
        assert run(["queryeval", *common, "--artifact", str(tmp_path / artifact), "--lambda", "2",
                    "--queries", "20", "--out", str(tmp_path / "r")]) == 0
    for name in ("generalized", "perturbed", "baseline"):
        lines = (tmp_path / f"r.{name}.csv").read_text(encoding="utf-8").splitlines()[1:-1]
        assert len(lines) == 20
        for line in lines:
            float(line.split(",")[2])


def test_generalize_bucket_dump(example_files, tmp_path, capsys):
    csv, schema = example_files
    assert run([
        "generalize", "--input", str(csv), "--schema", str(schema),
        "--beta", "2", "--seed", "7", "--dump-buckets",
        "--out", str(tmp_path / "r.json"),
    ]) == 0
    out = capsys.readouterr().out
    assert "bucket 0: values=[headache,epilepsy]" in out
    assert "bucket 2:" in out


def test_audit_reports_unbounded_on_leaky_release(example_files, tmp_path, capsys):
    csv, schema = example_files
    # Hand-built release: one class exposes a value with certainty.
    release = {
        "kind": "generalized-release",
        "beta": 2.0, "seed": 0, "curve_order": 16,
        "qi": ["weight", "age"],
        "sa": {
            "attribute": "disease",
            "values": ["headache", "epilepsy", "brain tumors", "anemia", "angina", "heart murmur"],
            "counts": [2, 3, 3, 3, 4, 4],
            "total": 19,
        },
        "classes": [
            {"size": 9, "extents": [{"lo": 40, "hi": 90}, {"lo": 20, "hi": 80}],
             "sa": {"headache": 2, "epilepsy": 3, "brain tumors": 3, "anemia": 1}},
            {"size": 10, "extents": [{"lo": 40, "hi": 90}, {"lo": 20, "hi": 80}],
             "sa": {"anemia": 2, "angina": 4, "heart murmur": 4}},
        ],
    }
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(release), encoding="utf-8")
    assert run([
        "audit", "--release", str(path), "--input", str(csv), "--schema", str(schema),
    ]) == 0
    out = capsys.readouterr().out
    assert "achieved_beta=unbounded" not in out  # counts above are compliant
    # Now break one class outright: a single-value class at q = 1, with the
    # counts still adding up to the published distribution.
    release["classes"][0]["sa"] = {"headache": 2}
    release["classes"][0]["size"] = 2
    release["classes"][1]["sa"] = {"epilepsy": 3, "brain tumors": 3, "anemia": 3,
                                   "angina": 4, "heart murmur": 4}
    release["classes"][1]["size"] = 17
    path.write_text(json.dumps(release), encoding="utf-8")
    assert run([
        "audit", "--release", str(path), "--input", str(csv), "--schema", str(schema),
    ]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "achieved_beta=unbounded" in out
    assert "FAIL" in out
    assert _token(out, "achieved_beta") == _largest_required_beta(out) == "unbounded"


def test_audit_exits_three_on_tampered_release(example_files, tmp_path, capsys):
    csv, schema = example_files
    path = tmp_path / "release.json"
    assert run(["generalize", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "7", "--out", str(path)]) == 0
    audit = ["audit", "--release", str(path), "--input", str(csv), "--schema", str(schema)]
    assert run(audit) == 0
    # Move the rarest value's counts from the other classes into class 0 and
    # as many of class 0's other counts out to them: sizes and per-value
    # sums still match, and class 0 (size 4) now holds both rarest rows.
    release = json.loads(path.read_text(encoding="utf-8"))
    rarest = release["sa"]["values"][0]
    target = release["classes"][0]["sa"]
    for cls in release["classes"][1:]:
        for _ in range(cls["sa"].pop(rarest, 0)):
            other = next(v for v, c in target.items() if v != rarest and c > 0)
            target[other] -= 1
            target[rarest] = target.get(rarest, 0) + 1
            cls["sa"][other] = cls["sa"].get(other, 0) + 1
    path.write_text(json.dumps(release), encoding="utf-8")
    capsys.readouterr()
    assert run(audit) == EXIT_VIOLATION == 3
    out = capsys.readouterr().out
    assert "ec=0 " in out and "required_beta=unbounded FAIL" in out


LEAKY_AUDIT = """\
achieved_beta=unbounded declared_beta=2.0
ec=0 size=2 worst_value=headache worst_gain=8.500000 required_beta=unbounded FAIL
ec=1 size=17 worst_value=epilepsy worst_gain=0.117647 required_beta=0.117647 PASS
pairs=192 violations=0
worst_ratio=1.000000 at (weight=41.0, headache) bound=3.000000
classifier_accuracy=0.210526 top_value_frequency=0.210526
"""

PASSING_AUDIT = """\
achieved_beta=0.900000 declared_beta=2.0
ec=0 size=4 worst_value=epilepsy worst_gain=0.583333 required_beta=0.583333 PASS
ec=1 size=5 worst_value=headache worst_gain=0.900000 required_beta=0.900000 PASS
ec=2 size=10 worst_value=heart murmur worst_gain=0.425000 required_beta=0.425000 PASS
pairs=192 violations=0
worst_ratio=1.583333 at (weight=84.0, epilepsy) bound=2.845827
classifier_accuracy=0.157895 top_value_frequency=0.210526
"""


def test_audit_checks_the_classes_once(example_files, tmp_path, capsys, monkeypatch):
    csv, schema = example_files
    ok = tmp_path / "ok.json"
    assert run(["generalize", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "7", "--out", str(ok)]) == 0
    # One class holds only the rarest value: the exact check fails it, while
    # the naive-Bayes audit finds no violation, so exit 3 comes from it alone.
    leaky = tmp_path / "leaky.json"
    extents = [{"lo": 40, "hi": 90}, {"lo": 20, "hi": 80}]
    leaky.write_text(json.dumps({
        "kind": "generalized-release", "beta": 2.0, "seed": 0, "curve_order": 16,
        "qi": ["weight", "age"],
        "sa": {"attribute": "disease",
               "values": ["headache", "epilepsy", "brain tumors", "anemia", "angina", "heart murmur"],
               "counts": [2, 3, 3, 3, 4, 4], "total": 19},
        "classes": [
            {"size": 2, "extents": extents, "sa": {"headache": 2}},
            {"size": 17, "extents": extents,
             "sa": {"epilepsy": 3, "brain tumors": 3, "anemia": 3, "angina": 4, "heart murmur": 4}},
        ],
    }), encoding="utf-8")
    import betalike.audit as audit_mod
    import betalike.cli as cli_mod
    calls = []
    original = audit_mod.failing_classes

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(audit_mod, "failing_classes", counted)
    monkeypatch.setattr(cli_mod, "failing_classes", counted)
    capsys.readouterr()
    # Expected output and exit codes as captured before the check ran once.
    for release, code, expected in ((leaky, EXIT_VIOLATION, LEAKY_AUDIT), (ok, 0, PASSING_AUDIT)):
        calls.clear()
        assert run(["audit", "--release", str(release), "--input", str(csv),
                    "--schema", str(schema)]) == code
        assert capsys.readouterr().out == expected
        assert len(calls) == 1


def test_queryeval_rejects_a_negative_workload_size(example_files, tmp_path, capsys):
    csv, schema = example_files
    release = tmp_path / "release.json"
    assert run(["generalize", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "7", "--out", str(release)]) == 0
    capsys.readouterr()
    assert run(["queryeval", "--input", str(csv), "--schema", str(schema), "--artifact", str(release),
                "--lambda", "2", "--queries", "-3", "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: workload size must be >= 0, got -3\n"
    assert captured.out == "" and not list(tmp_path.glob("r.*"))


def test_queryeval_empty_workload(example_files, tmp_path, capsys):
    csv, schema = example_files
    common = ["--input", str(csv), "--schema", str(schema)]
    assert run(["generalize", *common, "--beta", "2", "--seed", "7", "--out", str(tmp_path / "g.json")]) == 0
    assert run(["perturb", *common, "--beta", "2", "--seed", "1", "--out", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    for artifact, names in (("g.json", ("generalized",)), ("p", ("perturbed", "baseline"))):
        assert run(["queryeval", *common, "--artifact", str(tmp_path / artifact), "--lambda", "2",
                    "--queries", "0", "--out", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        for name in names:
            assert f"estimator={name} queries=0 dropped=0 median_relative_error=undefined\n" in out
            assert (tmp_path / f"r.{name}.csv").read_text(encoding="utf-8") == (
                "query,prec,est,relative_error\n# median_relative_error=undefined dropped=0\n")


def _numeric_qi(**fields):
    return {"attributes": [{"name": "x", "role": "qi", "kind": "numeric", "min": 0, "max": 9, **fields},
                           {"name": "s", "role": "sa"}]}


DOMAIN = "attribute 'x': numeric domain needs finite lo < hi and a finite width hi - lo"


@pytest.mark.parametrize("doc, message", [
    ({"attributes": [{"role": "qi"}]}, "schema: attribute 0: missing field 'name'"),
    ({"attributes": 5}, "schema: field 'attributes' must be a JSON list of objects"),
    ({"attributes": ["x"]}, "schema: field 'attributes' must be a JSON list of objects"),
    ({}, "schema: missing field 'attributes'"),
    ([], "schema: the document must be a JSON object"),
    ({"attributes": [{"name": 5, "role": "qi"}]}, "schema: attribute 0: field 'name' must be a JSON string"),
    ({"attributes": [{"name": "x", "role": ["qi"]}]}, "schema: attribute 0: field 'role' must be a JSON string"),
    (_numeric_qi(kind=1), "schema: attribute 0: field 'kind' must be a JSON string"),
    (_numeric_qi(min="a"), "schema: attribute 0: field 'min' must be a JSON number"),
    (_numeric_qi(max=None), "schema: attribute 0: field 'max' must be a JSON number"),
    (_numeric_qi(weight=True), "schema: attribute 0: field 'weight' must be a JSON number"),
    ({"attributes": [{"name": "c", "role": "qi", "hierarchy": {"name": "r", "children": "ab"}},
                     {"name": "s", "role": "sa"}]},
     "internal node needs a name and a non-empty list of children"),
    pytest.param(_numeric_qi(min=float("-inf")), DOMAIN, id="min-minus-infinity"),
    pytest.param(_numeric_qi(min=-10**400), DOMAIN, id="min-huge-integer"),
    # `json` reads 1e400 as inf.
    pytest.param(json.dumps(_numeric_qi(max="MAX")).replace('"MAX"', "1e400"), DOMAIN, id="max-1e400"),
    pytest.param(_numeric_qi(min=-1e308, max=1e308), DOMAIN, id="width-overflows"),
    pytest.param(_numeric_qi(weight=float("nan")), "attribute 'x': weight must be a finite number >= 0",
                 id="nan-weight"),
    pytest.param({"attributes": [{"name": "x", "role": "key"}, {"name": "s", "role": "sa"}]},
                 "attribute 'x': role must be 'qi' or 'sa'", id="role"),
    pytest.param(_numeric_qi(kind="ordinal"), "attribute 'x': kind must be numeric or categorical", id="kind"),
    pytest.param({"attributes": [{"name": "c", "role": "qi"}, {"name": "s", "role": "sa"}]},
                 "attribute 'c': categorical QI needs a hierarchy", id="no-hierarchy"),
    pytest.param({"attributes": [{"name": "s", "role": "sa"}]}, "schema needs at least one QI attribute",
                 id="no-qi"),
    pytest.param({"attributes": [*_numeric_qi()["attributes"], {"name": "x", "role": "qi", "kind": "numeric",
                                                                 "min": 0, "max": 1}]},
                 "duplicate attribute names in schema", id="duplicate-names"),
    pytest.param({"attributes": [*_numeric_qi(weight=1)["attributes"], {"name": "y", "role": "qi",
                                                                         "kind": "numeric", "min": 0, "max": 1}]},
                 "either weight every QI attribute or none", id="partial-weights"),
])
def test_malformed_schema_is_one_error_line(tmp_path, capsys, doc, message):
    schema = tmp_path / "bad.schema.json"
    schema.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert run(["generalize", "--input", str(tmp_path / "t.csv"), "--schema", str(schema),
                "--out", str(tmp_path / "r.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


UNREADABLE_JSON = {
    "non-utf8": lambda data: b"\xff" + data,
    "truncated": lambda data: data[: len(data) // 2],
    "too-deep": lambda data: b"[" * 5000 + b"]" * 5000,
}


@pytest.mark.parametrize("corrupt", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
@pytest.mark.parametrize("artifact", ["schema", "release", "distribution"])
def test_unreadable_json_is_one_error_line(example_files, tmp_path, capsys, artifact, corrupt):
    csv, schema = example_files
    release, pert = tmp_path / "release.json", tmp_path / "pert"
    for command, out in (("generalize", release), ("perturb", pert)):
        assert run([command, "--input", str(csv), "--schema", str(schema), "--beta", "2",
                    "--out", str(out)]) == 0
    path = {"schema": schema, "release": release, "distribution": pert / "distribution.json"}[artifact]
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    code = run(["queryeval", "--input", str(csv), "--schema", str(schema), "--lambda", "1",
                "--queries", "5", "--artifact", str(pert if artifact == "distribution" else release)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and path.name in err


def test_malformed_release_names_field(example_files, tmp_path, capsys):
    csv, schema = example_files
    path = tmp_path / "release.json"
    path.write_text(json.dumps({"kind": "generalized-release"}), encoding="utf-8")
    code = run(["audit", "--release", str(path), "--input", str(csv), "--schema", str(schema)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "release.json" in err and "'sa'" in err


def _set_extent(k, cls=0, **fields):
    def tamper(release):
        release["classes"][cls]["extents"][k].update(fields)
    return tamper


def _move_one_count(release):
    """Class 0 swaps one row of its most common value for another value: the
    class size holds, the per-value sums over the classes do not."""
    sa = release["classes"][0]["sa"]
    top = max(sa, key=sa.get)
    other = next(v for v in release["sa"]["values"] if v != top)
    sa[top] -= 1
    sa[other] = sa.get(other, 0) + 1


def _counts_past_int64(release):
    """Every count times 2**63: the release adds up, but no count fits an int64."""
    scale = 2**63
    release["sa"]["counts"] = [c * scale for c in release["sa"]["counts"]]
    release["sa"]["total"] *= scale
    for cls in release["classes"]:
        cls["size"] *= scale
        cls["sa"] = {value: c * scale for value, c in cls["sa"].items()}


def _sums_wrap_int64(release):
    """Five classes hold 2**62 more of the top value, and its count 2**62
    more: each class adds up, but the value's sum over the classes is 2**64
    past its count, which int64 arithmetic would wrap to exactly the count."""
    top = release["sa"]["values"][-1]
    release["sa"]["counts"][-1] += 2**62
    release["sa"]["total"] += 2**62
    for cls in release["classes"][:5]:
        cls["sa"][top] = cls["sa"].get(top, 0) + 2**62
        cls["size"] += 2**62


@pytest.mark.parametrize("tamper, named", [
    (_set_extent(0, lo=float("nan")), "extent age"),
    (_set_extent(0, hi=float("inf")), "extent age"),
    (_set_extent(0, lo=60, hi=50), "extent age"),
    (_set_extent(2, lo=0), "extent education"),
    (_set_extent(1, label="male", leaf_lo=0, leaf_hi=1), "extent sex"),
    (_set_extent(1, label="person", leaf_lo=0, leaf_hi=0), "extent sex"),
    (_set_extent(1, label="person", leaf_lo=0, leaf_hi=2), "extent sex"),
    (_set_extent(0, lo=10**400), "extent age"),
    (_move_one_count, "'classes'"),
    (lambda release: release["classes"][0]["sa"].update({release["sa"]["values"][0]: 10**30}),
     "count of"),
    (lambda release: release.update(curve_order=999), "'curve_order'"),
    (lambda release: release.update(curve_order=-5), "'curve_order'"),
    (lambda release: release.update(seed=-1), "'seed'"),
    (lambda release: release["sa"].update(attribute="salary"), "'attribute'"),
    (lambda release: release["classes"][0].update(size=0, sa={}), "class is empty"),
    (_counts_past_int64, "'total'"),
    (lambda release: release["classes"][0]["extents"].pop(), "needs one extent per QI attribute"),
    (lambda release: release["classes"][0]["sa"].update(other=1), "unknown SA value 'other'"),
    (lambda release: release["classes"][0].update(size=release["classes"][0]["size"] + 1),
     "class size does not match its SA counts"),
    (_sums_wrap_int64, "'classes'"),
], ids=["nan-extent", "infinite-extent", "inverted-extent", "outside-domain", "wrong-label",
        "not-the-node-span", "leaf-out-of-range", "huge-extent", "counts-off-distribution",
        "huge-count", "curve-order-too-large", "curve-order-negative", "negative-seed", "wrong-sa-attribute",
        "empty-class", "total-past-int64", "missing-extent", "unknown-sa-value", "size-off-counts",
        "sums-wrap-int64"])
def test_inconsistent_release_names_field(tmp_path, capsys, tamper, named):
    err = _audit_tampered_release(tmp_path, capsys, tamper)
    assert "release.json" in err and named in err
    # A field of the whole release is named as it stands; a class's fault names the class.
    assert "classes[0]" in err or named.startswith("'")


def _audit_tampered_release(tmp_path, capsys, tamper) -> str:
    """The one error line `audit` prints for a generalized release of 300
    rows (five SA values, at least five classes) once `tamper` changed it."""
    prefix = tmp_path / "synth"
    csv, schema = prefix.with_suffix(".csv"), prefix.with_suffix(".schema.json")
    path = tmp_path / "release.json"
    assert run(["gen-data", "--rows", "300", "--sa-size", "5", "--skew", "0.3",
                "--seed", "2", "--out", str(prefix)]) == 0
    assert run(["generalize", "--input", str(csv), "--schema", str(schema),
                "--beta", "4", "--seed", "1", "--out", str(path)]) == 0
    release = json.loads(path.read_text(encoding="utf-8"))
    assert len(release["classes"]) >= 5
    tamper(release)
    path.write_text(json.dumps(release), encoding="utf-8")
    capsys.readouterr()
    code = run(["audit", "--release", str(path), "--input", str(csv), "--schema", str(schema)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def _tampers(*tampers):
    def tamper(release):
        for t in tampers:
            t(release)
    return tamper


def _set_sa(cls, **counts):
    def tamper(release):
        release["classes"][cls]["sa"].update(counts)
    return tamper


@pytest.mark.parametrize("tamper, named", [
    (_set_extent(0, cls=3, lo=60, hi=50), "classes[3]: extent age: needs finite"),
    (_tampers(_set_extent(0, cls=3, lo=None), lambda release: release["classes"][1].update(size=0)),
     "classes[1]: class size does not match its SA counts"),
    (_tampers(_set_sa(2, other=1), _set_extent(1, cls=2, label="male", leaf_lo=0, leaf_hi=1)),
     "classes[2]: extent sex: label 'male'"),
    (_tampers(_set_sa(4, other=1), _set_extent(2, cls=4, hi="x")),
     "classes[4]: extent education: field 'hi' must be a JSON number"),
    (_tampers(lambda release: release["classes"][1]["extents"].pop(), _set_extent(0, cls=1, lo=-5)),
     "classes[1]: needs one extent per QI attribute"),
    # The first faulty SA entry in key order: an unknown value after a bad count.
    (lambda release: release["classes"][2].update(sa={**{k: -1 for k in release["classes"][2]["sa"]},
                                                        "other": 1}),
     "classes[2]: count of "),
    (lambda release: release["classes"][2].update(sa={"other": -1, **release["classes"][2]["sa"]}),
     "classes[2]: unknown SA value 'other'"),
    # A list or an object where a later class has a scalar: named like any other fault.
    (_set_extent(0, cls=3, lo=[1]), "classes[3]: extent age: field 'lo' must be a JSON number\n"),
    (_tampers(_set_extent(0, cls=3, lo=60, hi=50), _set_extent(0, cls=4, lo=[1])),
     "classes[3]: extent age: needs finite"),
    (_set_extent(1, cls=3, label={}), "classes[3]: extent sex: field 'label' must be a JSON string\n"),
    (lambda release: release["classes"][3]["sa"].update(dict.fromkeys(release["classes"][3]["sa"], [1])),
     "classes[3]: count of "),
    (lambda release: release["classes"][3].update(size={}),
     "classes[3]: field 'size' must be a JSON integer\n"),
    (lambda release: release["classes"][3].update(sa=[1]), "classes[3]: field 'sa' must be a JSON object\n"),
], ids=["later-class", "first-of-two-classes", "extent-before-unknown-value", "field-type-before-unknown-value",
        "extent-count-before-range", "bad-count-before-unknown-value", "unknown-value-before-its-count",
        "list-as-lo", "range-before-a-later-list", "object-as-label", "list-as-count", "object-as-size",
        "list-as-sa"])
def test_release_error_names_the_first_fault_of_the_first_faulty_class(tmp_path, capsys, tamper, named):
    err = _audit_tampered_release(tmp_path, capsys, tamper)
    assert named in err


def test_release_of_other_qi_attributes_is_one_error_line(tmp_path, capsys):
    prefix = tmp_path / "synth"
    common = ["--input", str(prefix.with_suffix(".csv")), "--schema", str(prefix.with_suffix(".schema.json"))]
    path = tmp_path / "release.json"
    assert run(["gen-data", "--rows", "300", "--sa-size", "5", "--seed", "2", "--out", str(prefix)]) == 0
    assert run(["generalize", *common, "--out", str(path)]) == 0
    release = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**release, "qi": release["qi"][::-1]}), encoding="utf-8")
    capsys.readouterr()
    assert run(["audit", *common, "--release", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: QI attributes do not match the schema\n"


def test_directory_without_a_distribution_is_one_error_line(example_files, tmp_path, capsys):
    csv, schema = example_files
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["queryeval", "--input", str(csv), "--schema", str(schema), "--artifact", str(empty),
                "--lambda", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty}: not a perturbation artifact (missing distribution.json)\n"


@pytest.mark.parametrize("sa_size", [2, 3])
def test_gen_data_too_few_values_for_the_census_profile_is_uniform(tmp_path, capsys, sa_size):
    # Two values leave no middle tier; with three, the middle value's share
    # would lie above the census maximum.
    assert run(["gen-data", "--rows", "60", "--sa-size", str(sa_size), "--out", str(tmp_path / "t")]) == 0
    stats = capsys.readouterr().out.splitlines()[0]
    assert stats.endswith(f"min_freq={1 / sa_size:.6f} max_freq={1 / sa_size:.6f}")


def test_gen_data_without_sa_values_is_one_error_line(tmp_path, capsys):
    assert run(["gen-data", "--rows", "60", "--sa-size", "0", "--out", str(tmp_path / "t")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need m >= 1\n"
    assert not list(tmp_path.iterdir())


def _every_age_16(csv):
    header, *rows = csv.read_text(encoding="utf-8").splitlines()
    k = header.split(",").index("age")
    rows = [",".join("16" if i == k else v for i, v in enumerate(row.split(","))) for row in rows]
    csv.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_perturbation_rejects_a_table_with_other_qi_values(tmp_path, capsys):
    source = tmp_path / "a"
    common = ["--input", str(source.with_suffix(".csv")), "--schema", str(source.with_suffix(".schema.json"))]
    query = ["queryeval", *common, "--artifact", str(tmp_path / "pert"), "--queries", "50"]
    assert run(["gen-data", "--rows", "5000", "--seed", "1", "--out", str(source)]) == 0
    assert run(["perturb", *common, "--out", str(tmp_path / "pert")]) == 0
    capsys.readouterr()
    assert run(query) == 0
    assert capsys.readouterr().out.startswith("estimator=perturbed queries=50 dropped=0 ")
    # The SA column and the row count still match; every query is dropped
    # unless the QI columns are compared too.
    _every_age_16(source.with_suffix(".csv"))
    assert run(query) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: table is not the artifact's source: its 'age' column "
                            "differs from the perturbed table's\n")


def test_perturbation_source_may_write_a_zero_as_minus_zero(tmp_path, capsys):
    # The perturbed table is written with "0" where its source said "-0".
    schema = bl.DatasetSchema((bl.Attribute("x", "qi", "numeric", lo=-3, hi=3), bl.Attribute("s", "sa")))
    csv, schema_path = tmp_path / "t.csv", tmp_path / "t.schema.json"
    rows = [f"{x},{s}" for s, n in (("a", 2), ("b", 3), ("c", 4)) for x in ("-0", "1", "-2", "3")
            for _ in range(n)]
    csv.write_text("x,s\n" + "\n".join(rows) + "\n", encoding="utf-8")
    bl.save_schema(schema, schema_path)
    common = ["--input", str(csv), "--schema", str(schema_path)]
    assert run(["perturb", *common, "--beta", "2", "--out", str(tmp_path / "pert")]) == 0
    assert "\n0," in (tmp_path / "pert" / "perturbed.csv").read_text(encoding="utf-8")
    assert run(["queryeval", *common, "--artifact", str(tmp_path / "pert"), "--lambda", "1",
                "--queries", "5"]) == 0


@pytest.mark.parametrize("command, artifact", [
    ("audit", "release"), ("queryeval", "release"), ("queryeval", "perturbation"),
])
@pytest.mark.parametrize("other, message", [
    (["--seed", "2", "--skew", "1.0"], "SA values or their counts differ"),
    (["--seed", "1", "--rows", "4000"], "row count 4000 differs from the artifact's 5000"),
], ids=["other-distribution", "other-row-count"])
def test_table_that_is_not_the_source_exits_one(tmp_path, capsys, command, artifact, other, message):
    source, foreign = tmp_path / "a", tmp_path / "b"
    schema = source.with_suffix(".schema.json")
    assert run(["gen-data", "--rows", "5000", "--seed", "1", "--out", str(source)]) == 0
    assert run(["gen-data", "--rows", "5000", *other, "--out", str(foreign)]) == 0
    made = {"release": tmp_path / "release.json", "perturbation": tmp_path / "pert"}
    common = ["--input", str(source.with_suffix(".csv")), "--schema", str(schema)]
    assert run(["generalize", *common, "--out", str(made["release"])]) == 0
    assert run(["perturb", *common, "--out", str(made["perturbation"])]) == 0
    capsys.readouterr()
    files = ["--input", str(foreign.with_suffix(".csv")), "--schema", str(schema)]
    flag = "--release" if command == "audit" else "--artifact"
    assert run([command, *files, flag, str(made[artifact])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table is not the artifact's source: ")
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("tamper, named", [
    (lambda doc: {"kind": "perturbed-release"}, "'values'"),
    (lambda doc: {"kind": "generalized-release", "values": ["a"]}, "perturbed-release"),
    (lambda doc: {**doc, "attribute": "salary"}, "'attribute'"),
    (lambda doc: {**doc, "seed": -5}, "field 'seed' must be >= 0"),
    (lambda doc: {**doc, "counts": doc["counts"][::-1]}, "counts must be in ascending order"),
], ids=["missing-values", "wrong-kind", "wrong-sa-attribute", "negative-seed", "descending-counts"])
def test_malformed_distribution_names_field(example_files, tmp_path, capsys, tamper, named):
    csv, schema = example_files
    outdir = tmp_path / "pert"
    assert run(["perturb", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "1", "--out", str(outdir)]) == 0
    path = outdir / "distribution.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(tamper(doc)), encoding="utf-8")
    capsys.readouterr()
    code = run(["queryeval", "--input", str(csv), "--schema", str(schema),
                "--artifact", str(outdir), "--lambda", "1", "--queries", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "distribution.json" in err and named in err


@pytest.mark.parametrize("artifact", ["release", "perturbation"])
def test_beta_too_large_for_a_float_exits_one(example_files, tmp_path, capsys, artifact):
    csv, schema = example_files
    if artifact == "release":
        path = doc = tmp_path / "release.json"
        args = ["generalize", "--out", str(path)]
    else:
        path, doc = tmp_path / "pert", tmp_path / "pert" / "distribution.json"
        args = ["perturb", "--out", str(path)]
    assert run([*args, "--input", str(csv), "--schema", str(schema), "--beta", "2"]) == 0
    obj = json.loads(doc.read_text(encoding="utf-8"))
    obj["beta"] = 10**400
    doc.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = run(["queryeval", "--input", str(csv), "--schema", str(schema),
                "--artifact", str(path), "--lambda", "1", "--queries", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert doc.name in err and "'beta'" in err


def test_perturb_byte_identical_reruns(example_files, tmp_path):
    csv, schema = example_files
    dirs = [tmp_path / "p1", tmp_path / "p2"]
    for out in dirs:
        assert run([
            "perturb", "--input", str(csv), "--schema", str(schema),
            "--beta", "2", "--seed", "3", "--out", str(out),
        ]) == 0
    for name in ("perturbed.csv", "pm.txt", "distribution.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_internal_audit_breach_exits_two(example_files, tmp_path, capsys, monkeypatch):
    csv, schema = example_files
    # The pipeline guarantees compliance, so simulate a breach to check the
    # distinct exit code is wired up.
    import betalike.cli as cli_mod
    monkeypatch.setattr(cli_mod, "failing_classes", lambda release: [0])
    code = run([
        "generalize", "--input", str(csv), "--schema", str(schema),
        "--beta", "2", "--seed", "1", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_perturb_posterior_breach_exits_two(example_files, tmp_path, capsys, monkeypatch):
    csv, schema = example_files
    # The package attribute betalike.perturb is the function, not the module.
    monkeypatch.setattr(sys.modules["betalike.perturb"], "posterior_margin", lambda model: -1e-6)
    code = run(["perturb", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "1", "--out", str(tmp_path / "pert")])
    assert code == 2
    assert "posterior bound exceeded by 1e-06" in capsys.readouterr().err
    assert not (tmp_path / "pert").exists()


def test_queryeval_on_a_model_that_fails_its_checks_exits_two(example_files, tmp_path, capsys, monkeypatch):
    csv, schema = example_files
    files = ["--input", str(csv), "--schema", str(schema)]
    assert run(["perturb", *files, "--beta", "2", "--seed", "1", "--out", str(tmp_path / "pert")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys.modules["betalike.perturb"], "posterior_margin", lambda model: -1e-6)
    code = run(["queryeval", *files, "--artifact", str(tmp_path / "pert"), "--lambda", "1", "--queries", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: posterior bound exceeded by 1e-06\n"


def test_perturb_prints_margin_on_the_cap(tmp_path, capsys):
    # A uniform SA puts every largest posterior exactly on its cap.
    prefix = tmp_path / "uniform"
    assert run(["gen-data", "--rows", "100", "--sa-size", "5", "--skew", "0",
                "--seed", "1", "--out", str(prefix)]) == 0
    assert run(["perturb", "--input", str(prefix.with_suffix(".csv")),
                "--schema", str(prefix.with_suffix(".schema.json")),
                "--beta", "2", "--seed", "1", "--out", str(tmp_path / "pert")]) == 0
    assert "\nposterior_margin=-0.000000\n" in capsys.readouterr().out


def test_gen_data_appends_its_suffixes_to_the_prefix(tmp_path, capsys):
    for prefix in ("run.1", "run.2"):
        out = tmp_path / prefix
        assert run(["gen-data", "--rows", "50", "--sa-size", "5", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"\nwrote {out}.csv and {out}.schema.json\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.1.csv", "run.1.schema.json", "run.2.csv", "run.2.schema.json"]


@pytest.mark.parametrize("out", [".", "", "..", "sub/", "sub/.."])
def test_gen_data_rejects_an_out_that_names_no_file(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    # Rejected before any row is generated.
    import betalike.cli as cli_mod
    monkeypatch.setattr(cli_mod, "generate_synthetic", None)
    assert run(["gen-data", "--rows", "50", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out must end in a file name prefix, got {out!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize("skew", ["nan", "-1"])
def test_gen_data_rejects_nan_or_negative_skew(tmp_path, capsys, skew):
    prefix = tmp_path / "x"
    assert run(["gen-data", "--skew", skew, "--rows", "100", "--out", str(prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: skew must be >= 0\n" and captured.out == ""
    assert not prefix.with_suffix(".csv").exists()


def test_nonpositive_beta_exits_one(example_files, tmp_path, capsys):
    csv, schema = example_files
    code = run([
        "generalize", "--input", str(csv), "--schema", str(schema),
        "--beta", "0", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "beta" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    schema = tmp_path / "s.json"
    bl.save_schema(patient_schema(), schema)
    code = run([
        "generalize", "--input", str(tmp_path / "nope.csv"),
        "--schema", str(schema), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("weight,weight,age,disease\n50,50,30,flu\n", "duplicate column(s) ['weight']"),
    ("weight,age,disease\n50,30,flu\n51,31,flu,extra\n", "row 2: expected 3 fields, got 4"),
    ("", "empty file"),
], ids=["duplicate-column", "long-row", "empty-file"])
def test_malformed_row_shape_exits_one(tmp_path, capsys, text, message):
    csv, schema = tmp_path / "t.csv", tmp_path / "s.json"
    csv.write_text(text, encoding="utf-8")
    bl.save_schema(patient_schema(), schema)
    code = run(["generalize", "--input", str(csv), "--schema", str(schema), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message) and err.count("\n") == 1


def test_bad_schema_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = run([
        "generalize", "--input", str(bad), "--schema", str(bad),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_infeasible_perturbation_exits_one(tmp_path, capsys):
    schema = patient_schema()
    rows = [{"weight": 50, "age": 30, "disease": "flu"}] * 9
    rows += [{"weight": 51, "age": 31, "disease": "cold"}]
    table = bl.table_from_rows(schema, rows)
    csv, sfile = tmp_path / "t.csv", tmp_path / "s.json"
    bl.save_table(table, csv)
    bl.save_schema(schema, sfile)
    code = run([
        "perturb", "--input", str(csv), "--schema", str(sfile),
        "--beta", "1", "--out", str(tmp_path / "p"),
    ])
    assert code == 1
    assert "no feasible retention" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--beta", "inf"], ["--order", "40"]])
def test_unusable_generalize_parameter_exits_one(example_files, tmp_path, capsys, flag):
    csv, schema = example_files
    out = tmp_path / "r.json"
    code = run(["generalize", "--input", str(csv), "--schema", str(schema), *flag, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, message", [
    *(pytest.param(command, ["--seed", "-1"], "seed must be >= 0, got -1", id=f"{command}-seed")
      for command in ("gen-data", "generalize", "perturb", "queryeval")),
    pytest.param("generalize", ["--order", "-1"], "curve order must be in [1, 31], got -1", id="order-negative"),
    pytest.param("generalize", ["--order", "70"], "curve order must be in [1, 31], got 70", id="order-70"),
])
def test_negative_seed_or_bad_curve_order_is_one_error_line(example_files, tmp_path, capsys,
                                                            command, flag, message):
    csv, schema = example_files
    files = ["--input", str(csv), "--schema", str(schema)]
    args = {"gen-data": ["--rows", "50"], "queryeval": [*files, "--artifact", str(tmp_path)]}
    code = run([command, *args.get(command, files), *flag, "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("tamper", [
    # Every entry x3: the clamp-and-rescale in reconstruction would hide it.
    lambda text: "\n".join(" ".join(repr(3 * float(x)) for x in line.split())
                           for line in text.splitlines()) + "\n",
    lambda text: text.replace(" ", " oops ", 1),
    lambda text: "",
], ids=["scaled", "unparsable", "empty"])
def test_tampered_transition_matrix_exits_one(example_files, tmp_path, capsys, tamper):
    csv, schema = example_files
    outdir = tmp_path / "pert"
    assert run(["perturb", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "1", "--out", str(outdir)]) == 0
    pm = outdir / "pm.txt"
    pm.write_text(tamper(pm.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = run(["queryeval", "--input", str(csv), "--schema", str(schema),
                "--artifact", str(outdir), "--lambda", "1", "--queries", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "pm.txt" in err


@pytest.mark.parametrize("resize", [
    lambda header, rows: [header, *rows[:3]],
    lambda header, rows: [header, *rows, *rows[:2]],
], ids=["short", "long"])
def test_perturbed_table_of_the_wrong_length_exits_one(example_files, tmp_path, capsys, resize):
    csv, schema = example_files
    outdir = tmp_path / "pert"
    assert run(["perturb", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "1", "--out", str(outdir)]) == 0
    table = outdir / "perturbed.csv"
    header, *rows = table.read_text(encoding="utf-8").splitlines()
    total = json.loads((outdir / "distribution.json").read_text(encoding="utf-8"))["total"]
    assert len(rows) == total
    table.write_text("\n".join(resize(header, rows)) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run(["queryeval", "--input", str(csv), "--schema", str(schema),
                "--artifact", str(outdir), "--lambda", "1", "--queries", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "perturbed.csv" in captured.err and f"total of {total}" in captured.err


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_quietly(example_files, tmp_path, capsys, monkeypatch):
    csv, schema = example_files
    release = tmp_path / "release.json"
    assert run(["generalize", "--input", str(csv), "--schema", str(schema),
                "--beta", "2", "--seed", "7", "--out", str(release)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = run(["audit", "--release", str(release), "--input", str(csv), "--schema", str(schema)])
    assert code == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def _console_audit(tmp_path, rows: int) -> tuple[list[str], dict]:
    """The `betalike` script, which is `cli.main`, as a process auditing a
    census release of `rows` rows, and its environment."""
    table = bl.generate_synthetic(rows, 50, seed=1, sa_freqs=bl.census_like_profile(50))
    csv, schema, release = tmp_path / "t.csv", tmp_path / "t.schema.json", tmp_path / "r.json"
    bl.save_table(table, csv)
    bl.save_schema(table.schema, schema)
    bl.save_release(bl.generalize(table, 4.0, seed=1), release)
    # Block-buffered stdout, as a shell pipe gives, so output is still
    # pending when the reader goes away.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    audit = [sys.executable, "-m", "betalike.cli", "audit", "--release", str(release),
             "--input", str(csv), "--schema", str(schema)]
    return audit, env


def test_console_entry_point_exits_141_on_a_closed_pipe(tmp_path):
    # The process's stdout is a real pipe, and the reader closes it after one line.
    audit, env = _console_audit(tmp_path, 200_000)
    done = subprocess.run(audit, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout) > 1 << 17             # more than a pipe buffer holds
    with subprocess.Popen(audit, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE
    assert err == b""


def test_console_entry_point_exits_141_when_short_output_meets_a_closed_pipe(tmp_path):
    # All of the output fits the stdout buffer, so it is first written when
    # `run` flushes it, after the reader has closed the pipe unread. `main`
    # must then keep the flush at exit from failing on the pipe again.
    audit, env = _console_audit(tmp_path, 2_000)
    with subprocess.Popen(audit, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE
    assert err == b""
