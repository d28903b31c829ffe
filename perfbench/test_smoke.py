"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at tiny N and step counts through both passes and
checks that each metric is emitted by name with its unit; runs fig1-ab at
full size to check that the gate passes (including the pinned CSV digest at
seed 0) and fails once the exact reference is corrupted; and checks that
the benchmark refuses to run without the package sources.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for name, (moves, flat) in metrics.PER_LAYER.items():
        for target in moves:
            metric, workload = target.split("@")
            assert metric in {**bounds, **metrics.RECORD_LINE}, name
            assert workload in workloads.WORKLOADS, name
        assert set(flat) <= set(workloads.WORKLOADS), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--steps", "20", "--particles", "200")
    result = result_of(proc)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        for name, unit in metrics.RECORD_LINE.items():
            assert detail[name]["unit"] == unit and math.isfinite(detail[name]["value"])


def test_gate_passes_then_fails_on_corrupted_reference():
    good = result_of(bench("--workload", "fig1-ab", "--seed", "0", "--seconds", "0"))
    assert good["correct"] and good["failed"] == 0
    bad = result_of(bench("--workload", "fig1-ab", "--seed", "0", "--seconds", "0",
                          "--corrupt-reference", "0.1"))
    assert not bad["correct"] and bad["failed"] == bad["attempted"]


def test_refuses_without_sources():
    lone = ROOT / ".perfbench" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    shutil.copytree(HERE, lone / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig1-ab", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=lone)
    shutil.rmtree(lone)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_tail_and_union():
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90.0)
    assert tracer._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_jacobi_moments_reach_the_dirichlet_marginals():
    alpha = [2.0, 3.0, 5.0]
    mean, var = workloads.jacobi_moments(alpha, 0.1, 1e3)
    a = sum(alpha)
    assert mean == pytest.approx([x / a for x in alpha], rel=1e-12)
    assert var == pytest.approx([x * (a - x) / (a * a * (a + 1)) for x in alpha], rel=1e-12)
    mean0, var0 = workloads.jacobi_moments(alpha, 0.1, 0.0)
    assert mean0 == pytest.approx([1 / 3] * 3) and var0 == pytest.approx([1 / 18] * 3)
