"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

Tiny-size runs of every workload print every metric of BENCHMARK.json with
its unit; a broken release is counted as a failed op; without the library
sources the benchmark fails without printing a result.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ROWS = 3000


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace), "--rows", str(TINY_ROWS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def _single_value_class(release):
    """The release with its first class's SA counts piled onto one value."""
    import betalike as bl

    ec = release.ecs[0]
    counts = np.zeros_like(ec.sa_counts)
    counts[int(np.argmax(ec.sa_counts))] = ec.size
    broken = bl.EquivalenceClass(ec.extents, counts, ec.rows)
    return dataclasses.replace(release, ecs=(broken,) + release.ecs[1:])


def test_broken_release_is_a_failed_op(monkeypatch, tmp_path):
    run._import_library()
    import betalike as bl

    generalize = bl.generalize
    monkeypatch.setattr(bl, "generalize", lambda *a, **k: _single_value_class(generalize(*a, **k)))
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = run.run("generalize-1m", 7, 0.0, False, rows=TINY_ROWS)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 2 and result["attempted"] > result["failed"]
    assert any("achieved_beta inf" in p for p in out["problems"])
    assert any("1 classes fail check_enhanced" in p for p in out["problems"])


def test_reruns_and_other_seeds_keep_fingerprints_consistent(monkeypatch, tmp_path):
    run._import_library()
    monkeypatch.setattr(run, "OUT", tmp_path)
    outs = [run.run("queryeval-200k", seed, 0.0, False, rows=TINY_ROWS) for seed in (7, 8, 7)]
    assert all(o["result"]["correct"] for o in outs), [o["problems"] for o in outs]
    assert outs[0]["fingerprints"] == outs[2]["fingerprints"] != outs[1]["fingerprints"]


def test_fingerprint_change_under_same_code_is_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.compare_fingerprints("w/10", {"release/seed=1": "aa"}) == []
    assert run.compare_fingerprints("w/10", {"release/seed=1": "aa"}) == []
    assert run.compare_fingerprints("w/10", {"release/seed=1": "bb"})


def test_tracer_restores_the_library():
    run._import_library()
    import betalike as bl
    import tracing

    before = {m: dict(vars(sys.modules[m])) for m in sys.modules if m.startswith("betalike")}
    draw = bl.SortedBucket.draw_nearest
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bl.generalize is not before["betalike"]["generalize"]
        table = bl.generate_synthetic(500, 10, seed=1)
        bl.generalize(table, 4.0)
    assert {m: dict(vars(sys.modules[m])) for m in before} == before
    assert bl.SortedBucket.draw_nearest is draw
    names = {s.name for s in tracer.spans}
    assert {"data.generate_synthetic", "generalize.generalize", "hilbert.table_keys",
            "generalize.draw_nearest", "release.build_ec"} <= names


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "generalize-1m", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_clock_scales_by_the_probes_around_an_interval():
    import hostspeed

    ref = hostspeed.REFERENCE_PROBE_S
    clock = hostspeed.HostClock()
    clock.probes = [(0.0, 0.1), (1.0, 1.2), (3.0, 3.4)]
    assert clock.seconds(1.5, 2.5) == pytest.approx(1.0 * ref / 0.3)
    assert clock.seconds(0.2, 0.9) == pytest.approx(0.7 * ref / 0.15)
    with pytest.raises(ValueError):
        clock.seconds(3.5, 4.0)
    result, (start, end) = clock.timed(sum, [1, 2])
    assert result == 3 and clock.probes[-2][1] <= start <= end <= clock.probes[-1][0]
