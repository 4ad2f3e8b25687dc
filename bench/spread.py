"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload queryeval-200k --seeds 1-10

Runs bench/run.py once per seed, one process at a time, from the repository
root. For every end-to-end metric it prints the median of the per-run values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median, beside the metric's bound from
BENCHMARK.json, and each run's wall time. Any incorrect run, failed op or
non-zero exit is reported and makes the exit status 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range 'a-b'")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lo, hi = (int(s) for s in args.seeds.split("-"))

    runs, bad = [], 0
    for seed in range(lo, hi + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
            bad += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}",
                  file=sys.stderr)
            continue
        runs.append(result)
        print(f"seed {seed}: wall={wall:.1f}s attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    if len(runs) >= 2:
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{name:40s} median={med:<14.6g} {first['unit']:12s} spread={spread:.4f}"
                  f" bound={bounds[name]}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
