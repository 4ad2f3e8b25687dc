"""Batch front door.

Subcommands: gen-data, generalize, perturb, audit, queryeval. All randomness
flows from --seed, so identical invocations produce byte-identical outputs.
Exit codes: 0 success, 1 configuration or data errors, 2 internal invariant
breach (a freshly produced artifact or a rebuilt perturbation model failing
its own checks), 3 when `audit` finds a violation (a class above the
release's beta, or a naive-Bayes ratio above its bound), 141 when the reader
of standard output closed it early (as in `betalike audit ... | head -1`;
141 is what a shell reports for a process ended by SIGPIPE).
That case prints nothing more, and the command's remaining work, such as
writing its output file, may not have happened.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .audit import achieved_beta, beta_text, ec_audit_lines, failing_classes, nb_bound_audit
from .buckets import dp_partition
from .data import (
    DataError,
    census_like_profile,
    check_source,
    generate_synthetic,
    load_schema,
    load_table,
    sa_distribution,
    save_schema,
    save_table,
)
from .generalize import generalize
from .hierarchy import HierarchyError
from .infoloss import ail
from .likeness import InternalAuditError, LikenessError
from .perturb import (
    PerturbationError,
    build_model,
    check_qi_source,
    load_perturbation,
    perturb,
    posterior_margin,
    save_perturbation,
)
from .queries import (
    gen_workload,
    perturbation_reports,
    save_report,
    workload_report_generalized,
)
from .release import load_release, save_release

USER_ERRORS = (DataError, HierarchyError, LikenessError, PerturbationError, OSError)
EXIT_VIOLATION = 3
EXIT_BROKEN_PIPE = 141


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="betalike",
        description="Microdata anonymization under the beta-likeness privacy model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    gen = sub.add_parser("gen-data", help="write a synthetic table and its schema", **defaults)
    gen.add_argument("--rows", type=int, default=100_000, help="table size")
    gen.add_argument("--sa-size", type=int, default=50, help="number of SA values")
    gen.add_argument("--skew", type=float, default=None, help="Zipf exponent for SA frequencies")
    gen.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    gen.add_argument("--out", required=True, help="path prefix; writes <out>.csv and <out>.schema.json")

    gl = sub.add_parser("generalize", help="publish equivalence classes", **defaults)
    gl.add_argument("--input", required=True)
    gl.add_argument("--schema", required=True)
    gl.add_argument("--beta", type=float, default=4.0, help="privacy budget")
    gl.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    gl.add_argument("--order", type=int, default=16, help="curve bits per dimension")
    gl.add_argument("--out", required=True, help="release file to write")
    gl.add_argument("--dump-buckets", action="store_true",
                    help="print the bucket composition before reallocating")

    pt = sub.add_parser("perturb", help="publish a randomized-response artifact", **defaults)
    pt.add_argument("--input", required=True)
    pt.add_argument("--schema", required=True)
    pt.add_argument("--beta", type=float, default=4.0, help="privacy budget")
    pt.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    pt.add_argument("--out", required=True, help="directory for perturbed.csv, pm.txt, distribution.json")

    au = sub.add_parser("audit", help="audit a release against its source table", **defaults)
    au.add_argument("--release", required=True)
    au.add_argument("--input", required=True)
    au.add_argument("--schema", required=True)

    qe = sub.add_parser("queryeval", help="median relative error of a workload", **defaults)
    qe.add_argument("--input", required=True)
    qe.add_argument("--schema", required=True)
    qe.add_argument("--artifact", required=True, help="release file or perturbation directory")
    qe.add_argument("--lambda", dest="lam", type=int, default=3, help="constrained QI attributes per query")
    qe.add_argument("--theta", type=float, default=0.1, help="expected selectivity")
    qe.add_argument("--queries", type=int, default=1000, help="workload size")
    qe.add_argument("--seed", type=int, default=0, help="seed for the workload")
    qe.add_argument("--out", help="path prefix for per-query report files")
    return ap


def _cmd_gen_data(args) -> int:
    if os.path.basename(args.out) in ("", ".", ".."):
        raise DataError(f"--out must end in a file name prefix, got {args.out!r}")
    csv_path, schema_path = Path(f"{args.out}.csv"), Path(f"{args.out}.schema.json")
    if args.skew is None:
        # Census-like frequency extremes when the domain is large enough for
        # them, otherwise uniform.
        try:
            freqs = census_like_profile(args.sa_size)
        except DataError:
            freqs = None
        table = generate_synthetic(args.rows, args.sa_size, seed=args.seed, sa_freqs=freqs)
    else:
        table = generate_synthetic(args.rows, args.sa_size, skew=args.skew, seed=args.seed)
    save_table(table, csv_path)
    save_schema(table.schema, schema_path)
    dist = sa_distribution(table)
    print(f"rows={table.n_rows} sa_values={table.m} "
          f"min_freq={dist.freq(0):.6f} max_freq={dist.freq(dist.m - 1):.6f}")
    print(f"wrote {csv_path} and {schema_path}")
    return 0


def _cmd_generalize(args) -> int:
    schema = load_schema(args.schema)
    table = load_table(args.input, schema)
    if args.dump_buckets:
        partition = dp_partition(table, args.beta)
        for i, bucket in enumerate(partition.buckets):
            values = ",".join(bucket.value_names(partition.dist))
            print(f"bucket {i}: values=[{values}] tuples={bucket.size} "
                  f"mass={bucket.mass:.6f} min_freq={bucket.min_freq:.6f}")
    release = generalize(table, args.beta, seed=args.seed, curve_order=args.order)
    achieved = achieved_beta(release)
    loss = ail(release)
    print(f"classes={len(release.ecs)} rows={release.n_rows} ail={loss:.6f}")
    print(f"achieved_beta={beta_text(achieved)} requested_beta={args.beta}")
    failing = failing_classes(release)
    if failing:
        raise InternalAuditError(f"freshly generalized release violates its own budget: "
                                 f"{len(failing)} classes fail it, first ec={failing[0]}")
    save_release(release, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_perturb(args) -> int:
    schema = load_schema(args.schema)
    table = load_table(args.input, schema)
    dist = sa_distribution(table)
    model = build_model(dist, args.beta)
    randomized = perturb(table, model, seed=args.seed)
    print(f"rows={table.n_rows} sa_values={dist.m} "
          f"retention_min={model.retention.min():.6f} retention_max={model.retention.max():.6f}")
    print(f"posterior_margin={posterior_margin(model):.6f}")
    save_perturbation(args.out, randomized, model, args.seed)
    print(f"wrote {Path(args.out) / 'perturbed.csv'}, pm.txt, distribution.json")
    return 0


def _cmd_audit(args) -> int:
    schema = load_schema(args.schema)
    table = load_table(args.input, schema)
    release = load_release(args.release, schema)
    # First, so that a table that is not the release's source fails before
    # any line is printed.
    report = nb_bound_audit(release, table)
    print(f"achieved_beta={beta_text(achieved_beta(release))} declared_beta={release.beta}")
    ec_lines = ec_audit_lines(release)
    for line in ec_lines:
        print(line)
    for line in report.lines():
        print(line)
    # The class lines already carry the exact check's verdict; the exit code
    # reads it there rather than running the check again.
    failed = any(line.endswith(" FAIL") for line in ec_lines)
    return EXIT_VIOLATION if failed or report.violations else 0


def _cmd_queryeval(args) -> int:
    schema = load_schema(args.schema)
    table = load_table(args.input, schema)
    workload = gen_workload(table, args.lam, args.theta, args.queries, seed=args.seed)
    artifact = Path(args.artifact)
    if artifact.is_dir():
        perturbed, model = load_perturbation(artifact, schema)
        check_source(table, model.dist)
        check_qi_source(table, perturbed)
        reports = perturbation_reports(table, perturbed, model, workload)
    else:
        release = load_release(artifact, schema)
        check_source(table, release.dist)
        reports = {"generalized": workload_report_generalized(table, release, workload)}
    for name, report in reports.items():
        med = report.median_error
        med_txt = "undefined" if med is None else f"{med:.6f}"
        print(f"estimator={name} queries={report.n_queries} dropped={report.dropped} "
              f"median_relative_error={med_txt}")
        if args.out:
            target = Path(f"{args.out}.{name}.csv")
            save_report(report, target)
            print(f"wrote {target}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "generalize": _cmd_generalize,
    "perturb": _cmd_perturb,
    "audit": _cmd_audit,
    "queryeval": _cmd_queryeval,
}


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise DataError(f"seed must be >= 0, got {args.seed}")
        code = _COMMANDS[args.command](args)
        # Output still buffered meets a closed pipe here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # An OSError, so it must be caught before USER_ERRORS.
        return EXIT_BROKEN_PIPE
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalAuditError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    if code == EXIT_BROKEN_PIPE:
        # The interpreter flushes stdout at exit, which would fail on the
        # closed pipe again and print a warning.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
