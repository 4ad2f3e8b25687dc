"""Benchmark of the betalike publisher: one workload per process.

    python3 bench/run.py --workload generalize-1m --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. The
workload's inputs come from --seed. Ops run at least once per derived seed
and then while another fits in --seconds, with set-up repeated between
them (SETUP_SHARE); every op's outputs are checked. Every time reported is
the sum of the sample's calls into the library, each scaled to the
reference host speed by the probes around it (hostspeed.py). The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, read from spans recorded around calls into the library
(passes over the derived seeds alternate untraced and traced, and
trace.overhead_s is the median over seeds of traced minus untraced op
time). See bench/README.md.

Fingerprints (sha256 of published artifacts, per derived seed) are printed
and kept in .bench_out/fingerprints.json; a run whose fingerprint differs
from an earlier run of the same library code and the same inputs is
incorrect. Traced runs write their spans to .bench_out/trace-*.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# After each op, set-up repeats until its samples add up to this share of
# the op time so far; setup_s is their median.
SETUP_SHARE = 0.25


def _import_library() -> None:
    """Import betalike from this checkout's sources, never from elsewhere."""
    if not (SRC / "betalike" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'betalike'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import betalike

    if Path(betalike.__file__).resolve().parent != SRC / "betalike":
        raise SystemExit(f"error: betalike was imported from {betalike.__file__}, not {SRC}")


def code_hash() -> str:
    """Hash of what determines the outputs: the library, the benchmark's
    own inputs and numpy, whose generators make the data."""
    import numpy

    digest = hashlib.sha256(numpy.__version__.encode())
    for path in sorted([*(SRC / "betalike").rglob("*.py"), *(ROOT / "bench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare_fingerprints(key_prefix: str, found: dict[str, str]) -> list[str]:
    """Record this run's fingerprints; report any that differ from an
    earlier run of the same code."""
    store_path = OUT / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    code = code_hash()
    problems = []
    for key, sha in found.items():
        entry = store.get(f"{key_prefix}/{key}")
        if entry and entry["code"] == code and entry["sha256"] != sha:
            problems.append(f"fingerprint {key} differs from an earlier run of the same code")
        store[f"{key_prefix}/{key}"] = {"code": code, "sha256": sha}
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store_path)
    return problems


def raw(samples) -> float:
    """Unscaled seconds of all the samples' timed calls."""
    return sum(end - start for intervals in samples for start, end in intervals)


def run(name: str, seed: int, seconds: float, trace: bool, rows: int | None = None) -> dict:
    from hostspeed import HostClock
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    seed %= 2**32
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    clock = HostClock()
    workload = WORKLOADS[name](seed, rows, workdir, tracer)
    attempted = failed = 0
    problems: list[str] = []
    fingerprints: dict[str, str] = {}

    def attempt(label: str, check) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            found = check()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(f"{label}: {p}" for p in found)

    def timed(phase: str, fn, traced: bool):
        """Run fn(step) as one sample. Its time is that of the calls it
        makes through step(f, *args), each between two host-speed probes;
        returns fn's result and the calls' (start, end) intervals."""
        intervals: list[tuple[float, float]] = []

        def step(f, *args, **kwargs):
            result, interval = clock.timed(f, *args, **kwargs)
            intervals.append(interval)
            return result

        step.intervals = intervals
        with tracer.installed() if traced else contextlib.nullcontext(), tracer.phase(phase):
            result = fn(step)
        return result, intervals

    try:
        setup_times = [timed("setup", workload.setup, trace)[1]]

        def check_setup():
            found = workload.check_setup()
            if not found:
                fingerprints.update(workload.setup_fingerprints())
            return found

        attempt("setup", check_setup)

        op_times: dict[bool, list[list[tuple[float, float]]]] = {False: [], True: []}
        seeds = workload.op_seeds
        # Traced runs alternate whole passes over the op seeds, untraced
        # first, so both kinds of op see the same inputs.
        per_seed: dict[bool, dict[int, list[list[tuple[float, float]]]]] = {False: {}, True: {}}
        batch_times: list[list[tuple[float, float]]] = []
        passes = 2 if trace else 1
        # Each round is an op with its checks, batches and set-up repeats; a
        # round starts only if one of median length still ends in time.
        rounds: list[float] = []
        start, i = time.perf_counter(), 0
        while i < passes * len(seeds) or (
                time.perf_counter() - start + statistics.median(rounds) <= seconds):
            round_start = time.perf_counter()
            op_seed, traced, first_pass = seeds[i % len(seeds)], trace and (i // len(seeds)) % 2 == 1, i < len(seeds)

            def one_op():
                out, intervals = timed("op", lambda step: workload.op(op_seed, step), traced)
                op_times[traced].append(intervals)
                per_seed[traced].setdefault(op_seed, []).append(intervals)
                found = workload.check(op_seed, out)
                if first_pass and not found:
                    fingerprints.update(workload.fingerprints(op_seed, out))
                return found

            attempt(f"op {i} (seed {op_seed})", one_op)
            i += 1
            for _ in range(getattr(workload, "batches_per_op", 0)):

                def one_batch():
                    out, intervals = timed("batch", workload.batch, trace)
                    batch_times.append(intervals)
                    return workload.check_batch(out)

                attempt("batch", one_batch)
            # Set-up samples are spread over the run rather than taken in
            # one burst at its start.
            while raw(setup_times) < SETUP_SHARE * raw(op_times[False] + op_times[True]):
                setup_times.append(timed("setup", workload.setup, trace)[1])
            rounds.append(time.perf_counter() - round_start)

        problems += compare_fingerprints(f"{name}/{workload.rows}/{seed}", fingerprints)

        if not op_times[False] or (trace and not op_times[True]):
            raise SystemExit("error: no op completed; " + "; ".join(problems[:5]))
        def scaled(intervals) -> float:
            return sum(clock.seconds(*iv) for iv in intervals)

        if trace:
            metrics = layer_metrics(tracer.spans, [m["name"] for m in wanted])
            for key in ("generalized", "perturbed", "baseline"):
                metrics[f"queries.median_error_{key}"] = workload.mean_quality(f"median_error_{key}")
            metrics["trace.overhead_s"] = statistics.median(
                statistics.median(scaled(ivs) for ivs in per_seed[True][k])
                - statistics.median(scaled(ivs) for ivs in per_seed[False][k])
                for k in per_seed[True])
            metrics["host.probe_s"] = statistics.median(clock.durations())
            OUT.joinpath(f"trace-{name}-{seed}.json").write_text(json.dumps(
                {"workload": name, "seed": seed, "rows": workload.rows, "spans": tracer.to_obj()}))
        else:
            op_seconds = [scaled(ivs) for ivs in op_times[False]]
            metrics = workload.end_to_end(op_seconds, [scaled(ivs) for ivs in batch_times], scaled)
            metrics["setup_s"] = statistics.median(scaled(ivs) for ivs in setup_times)
            metrics["pipeline_s"] = statistics.median(op_seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: workload {name} produced no value for {missing}")

    def relative(intervals):
        return [[round(a - clock.probes[0][0], 6), round(b - clock.probes[0][0], 6)] for a, b in intervals]

    return {
        "problems": problems,
        "fingerprints": fingerprints,
        # Raw intervals of each sample's timed calls, and the probes, in
        # seconds from the first probe.
        "samples": {"setup": [relative(ivs) for ivs in setup_times],
                    "op": [relative(ivs) for ivs in op_times[False]],
                    "traced_op": [relative(ivs) for ivs in op_times[True]],
                    "batch": [relative(ivs) for ivs in batch_times],
                    "probe": relative(clock.probes)},
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the ops repeat")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, help="override the workload's table size (smoke tests)")
    args = ap.parse_args(argv)
    # One thread per process: numpy's BLAS would otherwise spread the
    # per-query solves over both cores. Must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.rows)
    for problem in out["problems"][:20]:
        print(f"problem: {problem}")
    print("samples " + json.dumps(out["samples"]))
    print("fingerprints " + json.dumps(out["fingerprints"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
