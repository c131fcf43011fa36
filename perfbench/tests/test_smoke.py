"""Smoke test of the benchmark at M=2: metrics, units, verdicts and span nesting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layer spans that estimate() causes, directly or through equilibrate/oscillation_f
ESTIMATE_CHILDREN = {
    "equilibration.equilibrate", "equilibration.residual_functionals",
    "equilibration.solve_vertex_patch", "fem.project_element_bulk",
    "reconstruction.eta1_terms", "reconstruction.eta2_terms",
    "reconstruction.facet_trace_values", "estimator.oscillation_f",
    "estimator.oscillation_gN",
}
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["name"].startswith("data.") or m["name"].startswith("equilibration.patch")]


def run(workload, trace, seed=1):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    return result


def check_metrics(result, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    check_metrics(result, SPEC["end_to_end"])
    for name in ("ieff_tau_max", "ieff_taustar_max"):
        assert result["metrics"][name]["value"] >= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_nesting(workload):
    result = run(workload, trace=1)
    check_metrics(result, SPEC["per_layer"])
    with open(os.path.join(BENCH, "out", f"trace-{workload}-seed1.json"), encoding="utf-8") as fh:
        spans = {s["id"]: s for s in json.load(fh)["spans"]}
    nested = 0
    for s in spans.values():
        if s["name"] not in ESTIMATE_CHILDREN:
            continue
        parent = spans[s["parent"]]
        while parent["name"] != "estimator.estimate":
            parent = spans[parent["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        nested += 1
    assert nested > 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    children = sum(metrics[f"{name}_s"] for name in (
        "equilibration.equilibrate", "reconstruction.eta1_terms", "reconstruction.eta2_terms",
        "reconstruction.facet_trace_values", "estimator.oscillation_f",
        "estimator.oscillation_gN"))
    assert children < metrics["estimator.estimate_s"]
    assert metrics["estimator.self_s"] > 0


def test_counts_repeat_and_follow_the_workload():
    first = {w: run(w, trace=1)["metrics"] for w in WORKLOADS}
    again = run("poisson3d-neumann", trace=1)["metrics"]
    for name in COUNTS:
        assert again[name] == first["poisson3d-neumann"][name], name
    assert first["poisson3d-neumann"]["reconstruction.eta2_elements"]["value"] == 0
    assert first["poisson3d-neumann"]["data.gN_calls"]["value"] > 0
    assert first["cube3d-layer"]["data.gN_calls"]["value"] == 0
    assert first["cube3d-layer"]["reconstruction.eta2_elements"]["value"] > 0
    assert first["square2d-kappa-sweep"]["reconstruction.facet_trace_values_s"]["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    os.makedirs(tmp_path / "perfbench")
    for name in ("run.py", "workloads.py", "tracing.py"):
        with open(os.path.join(BENCH, name), encoding="utf-8") as src:
            (tmp_path / "perfbench" / name).write_text(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
