"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in `setup` (which the
runner repeats between ops, so it must rebuild the same state), does one
unit of work per `op`, and checks every op's outputs in `check` outside the
timed region. `setup`, `op` and `batch` get a `step` callable and make each
call they want timed as `step(fn, *args)`: a sample's time is the sum of
its steps, each scaled by the host-speed probes around it, and nothing
outside a step is timed. Ops take their seeds from `op_seeds`, a fixed
list derived from the run seed and cycled; quality metrics (ail, median
errors) and fingerprints come from the first pass over that list, so they
do not depend on run length. The library is reached only through module
attributes looked up at call time, so a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
from pathlib import Path

import numpy as np

import betalike as bl
from betalike import cli
from betalike.data import NUMERIC, QI, Attribute

BETA = 4.0
CURVE_ORDER = 16
SA_VALUES = 50
LAM, THETA = 3, 0.1
# Queries in the reference check of each query batch.
REFERENCE_SAMPLE = 5


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _census_table(rows: int, seed: int, qi_spec=None):
    return bl.generate_synthetic(rows, SA_VALUES, qi_spec=qi_spec, seed=seed,
                                 sa_freqs=bl.census_like_profile(SA_VALUES))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_dir(path) -> str:
    digest = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Checks shared by the workloads. Each returns a list of problems.


def check_release(release, beta: float, table=None, achieved: float | None = None) -> list[str]:
    """Budget met, every class passes the enhanced check, classes partition
    the table (by member rows when the release has them, else by counts)."""
    problems = []
    dist = release.dist
    achieved = bl.achieved_beta(release) if achieved is None else achieved
    if not achieved <= beta + 1e-9:
        problems.append(f"achieved_beta {achieved} > {beta}")
    failing = sum(not bl.check_enhanced(dist, ec.sa_counts, beta) for ec in release.ecs)
    if failing:
        problems.append(f"{failing} classes fail check_enhanced")
    counts = np.stack([ec.sa_counts for ec in release.ecs])
    if counts.sum(axis=0).tolist() != list(dist.counts):
        problems.append("class SA counts do not sum to the table's distribution")
    if table is not None:
        rows = np.sort(np.concatenate([ec.rows for ec in release.ecs]))
        if not np.array_equal(rows, np.arange(table.n_rows)):
            problems.append("class rows do not partition the table")
        elif any(not np.array_equal(np.bincount(table.sa_codes[ec.rows], minlength=table.m), ec.sa_counts)
                 for ec in release.ecs):
            problems.append("class SA counts disagree with its member rows")
    return problems


def check_perturbation(model) -> list[str]:
    caps = np.asarray([bl.frequency_bound(p, model.beta) for p in model.dist.freqs()])
    excess = float((bl.posterior(model).max(axis=1) - caps).max())
    return [f"posterior exceeds frequency_bound by {excess:.3g}"] if excess > 1e-9 else []


def reference_count(table, query, sa: bool = True) -> int:
    """Rows matching the query, counted independently of the library."""
    keep = np.ones(table.n_rows, dtype=bool)
    for k, lo, hi in query.qi:
        col = table.qi_columns[k]
        np.logical_and(keep, (col >= lo) & (col <= hi), out=keep)
    if sa:
        np.logical_and(keep, (table.sa_codes >= query.sa_lo) & (table.sa_codes <= query.sa_hi), out=keep)
    return int(np.count_nonzero(keep))


def check_queries(table, workload, precs, perturbed, model) -> list[str]:
    """Precise counts match the reference on a sample, every estimator saw
    the same precise counts, and the perturbed estimate over the whole SA
    domain conserves the QI-filtered row count."""
    problems = []
    if any(not np.array_equal(precs[0], p) for p in precs[1:]):
        problems.append("estimators disagree on precise counts")
    for i, q in enumerate(workload[:REFERENCE_SAMPLE]):
        ref = reference_count(table, q)
        if precs[0][i] != ref:
            problems.append(f"query {i}: exact_count {precs[0][i]:g} != reference {ref}")
        whole = bl.AggregateQuery(q.qi, 0, model.m - 1)
        est = bl.estimate_perturbed(perturbed, model, whole)
        rows = reference_count(perturbed, whole, sa=False)
        if abs(est - rows) > 1e-9 * max(1.0, rows):
            problems.append(f"query {i}: perturbed estimate {est!r} does not conserve {rows} rows")
    return problems


def check_reports(reports) -> list[str]:
    bad = [name for name, r in reports.items()
           if r.median_error is None or not math.isfinite(r.median_error) or r.median_error <= 0]
    return [f"no positive finite median error for {', '.join(bad)}"] if bad else []


def answers_sha(reports) -> str:
    digest = hashlib.sha256()
    for r in reports.values():
        digest.update(np.asarray(r.prec, dtype=float).tobytes() + np.asarray(r.est, dtype=float).tobytes())
    return digest.hexdigest()


def run_queries(step, table, release, perturbed, model, n: int, seed: int):
    """gen_workload plus the three estimators' reports over one workload."""
    workload = step(bl.gen_workload, table, LAM, THETA, n, seed=seed)
    reports = {
        "generalized": step(bl.workload_report_generalized, table, release, workload),
        "perturbed": step(bl.workload_report_perturbed, table, perturbed, model, workload),
        "baseline": step(bl.workload_report_baseline, table, model.dist, workload),
    }
    return workload, reports


# ---------------------------------------------------------------------------


class Workload:
    """Hooks the runner calls; see the module docstring. A workload may also
    define `batch(step)`, timed work the runner does `batches_per_op` times
    after each op, and `check_batch(out)`."""

    rows = 0
    quality_seeds = 2

    def __init__(self, seed: int, rows: int | None, workdir: Path, tracer) -> None:
        self.seed = seed
        self.rows = rows or self.rows
        self.workdir = workdir
        self.tracer = tracer
        self.op_seeds = derived_seeds(seed, self.quality_seeds)
        # Per derived seed: ail and/or the three median errors.
        self.quality: dict[int, dict[str, float]] = {}
        # Step intervals of the publishing part of each set-up and the
        # query part of each op, where that is a share of the sample.
        self.publish_intervals: list[list[tuple[float, float]]] = []
        self.query_intervals: list[list[tuple[float, float]]] = []

    def setup(self, step) -> None:
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        return []

    def setup_fingerprints(self) -> dict[str, str]:
        return {}

    def op(self, seed: int, step):
        raise NotImplementedError

    def check(self, seed: int, out) -> list[str]:
        raise NotImplementedError

    def fingerprints(self, seed: int, out) -> dict[str, str]:
        return {}

    def end_to_end(self, op_seconds: list[float], batch_seconds: list[float], scaled) -> dict[str, float]:
        """Workload-specific end-to-end metrics from the scaled op and batch
        times and `scaled(intervals)`; the runner adds setup_s, pipeline_s
        and peak_rss_mb."""
        raise NotImplementedError

    def mean_quality(self, name: str) -> float:
        return statistics.fmean(q[name] for q in self.quality.values() if name in q)

    def record_errors(self, seed: int, reports) -> None:
        self.quality.setdefault(seed, {}).update(
            {f"median_error_{k}": r.median_error for k, r in reports.items()})


class Generalize1M(Workload):
    """1M rows, three QI attributes (narrow int64 curve keys). One op is
    generalize -> achieved_beta -> ail -> nb_bound_audit. Query batches at
    full size between the ops give this workload's queries_per_s."""

    rows = 1_000_000
    quality_seeds = 2
    batches_per_op = 2
    batch_queries = 12
    first_release = perturbed = None
    batches = 0

    def setup(self, step) -> None:
        self.table = step(_census_table, self.rows, self.seed)

    def op(self, seed, step):
        release = step(bl.generalize, self.table, BETA, seed=seed, curve_order=CURVE_ORDER)
        achieved = step(bl.achieved_beta, release)
        loss = step(bl.ail, release)
        audit = step(bl.nb_bound_audit, release, self.table)
        return release, achieved, loss, audit

    def check(self, seed, out):
        release, achieved, loss, audit = out
        problems = check_release(release, BETA, self.table, achieved)
        if audit.violations:
            problems.append(f"nb_bound_audit found {audit.violations} violations")
        self.quality.setdefault(seed, {})["ail"] = loss
        if self.first_release is None:
            self.first_release = release
        return problems

    def fingerprints(self, seed, out):
        path = self.workdir / "release.json"
        bl.save_release(out[0], path)
        return {f"release/seed={seed}": sha256_file(path)}

    def batch(self, step):
        """One query batch against the first op's release and a perturbation
        published (untimed) on the first call; each batch is one sample of
        queries_per_s. The batch seeds (two per op seed) are cycled, so every
        run answers each of them."""
        seeds = derived_seeds(self.seed, self.quality_seeds * (1 + self.batches_per_op))[self.quality_seeds:]
        if self.perturbed is None:
            self.model = bl.build_model(bl.sa_distribution(self.table), BETA)
            self.perturbed = bl.perturb(self.table, self.model, seed=seeds[0])
        seed = seeds[self.batches % len(seeds)]
        self.batches += 1
        workload, reports = run_queries(step, self.table, self.first_release, self.perturbed, self.model,
                                        self.batch_queries, seed)
        return seed, workload, reports

    def check_batch(self, out):
        seed, workload, reports = out
        self.record_errors(seed, reports)
        return check_perturbation(self.model) + check_reports(reports) + check_queries(
            self.table, workload, [r.prec for r in reports.values()], self.perturbed, self.model)

    def end_to_end(self, op_seconds, batch_seconds, scaled):
        return {
            "publish_rows_per_s": self.rows / statistics.median(op_seconds),
            "queries_per_s": self.batch_queries / statistics.median(batch_seconds),
            "ail": self.mean_quality("ail"),
        }


class QueryEval200K(Workload):
    """200k rows; the release and the perturbed table are published in
    set-up, and one op answers a fresh COUNT workload with all three
    estimators."""

    rows = 200_000
    quality_seeds = 4
    queries = 250

    def setup(self, step):
        self.table = step(_census_table, self.rows, self.seed)
        self.release = step(bl.generalize, self.table, BETA, seed=1, curve_order=CURVE_ORDER)
        self.model = step(bl.build_model, step(bl.sa_distribution, self.table), BETA)
        self.perturbed = step(bl.perturb, self.table, self.model, seed=1)
        self.publish_intervals.append(step.intervals[1:])

    def check_setup(self):
        problems = check_release(self.release, BETA, self.table)
        audit = bl.nb_bound_audit(self.release, self.table)
        if audit.violations:
            problems.append(f"nb_bound_audit found {audit.violations} violations")
        self.ail = bl.ail(self.release)
        return problems + check_perturbation(self.model)

    def setup_fingerprints(self):
        bl.save_release(self.release, self.workdir / "release.json")
        bl.save_perturbation(self.workdir / "perturbation", self.perturbed, self.model, 1)
        return {
            "release/seed=1": sha256_file(self.workdir / "release.json"),
            "perturbation/seed=1": sha256_dir(self.workdir / "perturbation"),
        }

    def op(self, seed, step):
        return run_queries(step, self.table, self.release, self.perturbed, self.model, self.queries, seed)

    def check(self, seed, out):
        workload, reports = out
        self.record_errors(seed, reports)
        return check_reports(reports) + check_queries(
            self.table, workload, [r.prec for r in reports.values()], self.perturbed, self.model)

    def fingerprints(self, seed, out):
        return {f"answers/seed={seed}": answers_sha(out[1])}

    def end_to_end(self, op_seconds, batch_seconds, scaled):
        return {
            "publish_rows_per_s": self.rows / statistics.median(map(scaled, self.publish_intervals)),
            "queries_per_s": self.queries / statistics.median(op_seconds),
            "ail": self.ail,
        }


def zip_qi_spec():
    """The default QI attributes plus a high-cardinality numeric zip code:
    four attributes, so d * order = 64 and curve keys take the wide path."""
    return bl.default_qi_spec() + (Attribute("zip", QI, NUMERIC, lo=0, hi=99999),)


class CliRoundtrip100K(Workload):
    """100k rows in a CSV file; one op drives the command line in-process
    through generalize, perturb, audit and queryeval on both artifacts."""

    rows = 100_000
    quality_seeds = 2
    queries = 200

    def setup(self, step):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.source = step(_census_table, self.rows, self.seed, zip_qi_spec())
        self.csv = self.workdir / "table.csv"
        self.schema_path = self.workdir / "table.schema.json"
        step(bl.save_table, self.source, self.csv)
        step(bl.save_schema, self.source.schema, self.schema_path)

    def check_setup(self):
        """The CSV reads back as the generated table; the loaded copy is the
        reference for every query check."""
        schema = bl.load_schema(self.schema_path)
        self.table = bl.load_table(self.csv, schema)
        same = (self.table.sa_values == self.source.sa_values
                and np.array_equal(self.table.sa_codes, self.source.sa_codes)
                and all(np.array_equal(a, b) for a, b in zip(self.table.qi_columns, self.source.qi_columns)))
        return [] if same else ["CSV round trip changed the table"]

    def _paths(self, seed):
        return (self.workdir / f"release-{seed}.json", self.workdir / f"perturbation-{seed}",
                self.workdir / f"report-{seed}")

    def _cli(self, name: str, argv: list[str]):
        """cli.run in-process: (exit code, stdout, stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{name}"), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def op(self, seed, step):
        release, perturbation, report = self._paths(seed)
        common = ["--input", str(self.csv), "--schema", str(self.schema_path)]
        query = ["--queries", str(self.queries), "--seed", str(seed), "--out", str(report)]
        steps = (
            ("generalize", ["generalize", *common, "--beta", str(BETA), "--seed", str(seed),
                            "--order", str(CURVE_ORDER), "--out", str(release)]),
            ("perturb", ["perturb", *common, "--beta", str(BETA), "--seed", str(seed),
                         "--out", str(perturbation)]),
            ("audit", ["audit", "--release", str(release), *common]),
            ("queryeval_release", ["queryeval", *common, "--artifact", str(release), *query]),
            ("queryeval_perturbation", ["queryeval", *common, "--artifact", str(perturbation), *query]),
        )
        results = {name: step(self._cli, name, argv) for name, argv in steps}
        self.query_intervals.append(step.intervals[-2:])
        return results

    def check(self, seed, out):
        problems = [f"{name} exited {code}: {err.strip()}"
                    for name, (code, _, err) in out.items() if code != 0]
        if problems:
            return problems
        release_path, perturbation, report = self._paths(seed)
        release = bl.load_release(release_path, self.table.schema)
        problems += check_release(release, BETA)
        audit_out = out["audit"][1]
        if "violations=0" not in audit_out.split() or " FAIL" in audit_out:
            problems.append("audit reported a violation")
        perturbed, model = bl.load_perturbation(perturbation, self.table.schema)
        problems += check_perturbation(model)
        reports = {name: _read_report(Path(f"{report}.{name}.csv"))
                   for name in ("generalized", "perturbed", "baseline")}
        workload = bl.gen_workload(self.table, LAM, THETA, self.queries, seed=seed)
        problems += check_queries(self.table, workload, [prec for prec, _ in reports.values()],
                                  perturbed, model)
        if any(med is None or not med > 0 for _, med in reports.values()):
            problems.append("no positive median error")
        self.quality[seed] = {"ail": bl.ail(release),
                              **{f"median_error_{k}": med for k, (_, med) in reports.items()}}
        return problems

    def fingerprints(self, seed, out):
        release, perturbation, report = self._paths(seed)
        digest = hashlib.sha256()
        for name in ("generalized", "perturbed", "baseline"):
            digest.update(Path(f"{report}.{name}.csv").read_bytes())
        return {
            f"release/seed={seed}": sha256_file(release),
            f"perturbation/seed={seed}": sha256_dir(perturbation),
            f"answers/seed={seed}": digest.hexdigest(),
        }

    def end_to_end(self, op_seconds, batch_seconds, scaled):
        return {
            "publish_rows_per_s": self.rows / statistics.median(op_seconds),
            "queries_per_s": self.queries / statistics.median(map(scaled, self.query_intervals)),
            "ail": self.mean_quality("ail"),
        }


def _read_report(path: Path):
    """(precise counts, median relative error) of a `queryeval --out` file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    prec = np.asarray([float(line.split(",")[1]) for line in lines[1:-1]])
    med = lines[-1].split("median_relative_error=")[1].split()[0]
    return prec, None if med == "undefined" else float(med)


WORKLOADS = {
    "generalize-1m": Generalize1M,
    "queryeval-200k": QueryEval200K,
    "cli-roundtrip-100k": CliRoundtrip100K,
}
