"""The public names of the package and what the benchmark harness calls of it.

perfbench/tracing.py times the program by replacing module attributes by
name, and a name that has gone is only recorded as absent there, so a
cleanup of the package could drop a per-layer metric without a failure.
perfbench/workloads.py calls the package directly: a changed signature
breaks it, which the smoke passes below catch in-process. The stage harness
tests/stage_memory.py wraps its stages by name too, and is run here at M=2.
"""
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import fluxbound
import stage_memory

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    "errors",
    "Mesh", "build_cube_mesh", "build_facet_adjacency", "build_mesh", "read_mesh", "write_mesh",
    "QuadratureRule", "rule_for",
    "ProblemData", "FemSolution", "assemble", "solve", "solve_problem",
    "BoundaryFluxSet", "equilibrate", "facet_average", "residual_functionals",
    "solve_vertex_patch",
    "facet_residuals",
    "TraceConstants", "trace_constants", "oscillation_f", "oscillation_gN", "estimate",
    "true_error", "ErrorReport",
    "ExactBenchmarkSolution", "RunConfig", "exact_solution", "run_benchmark", "sweep_kappa",
    "sweep_mesh",
}


def _load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve(monkeypatch):
    wrapped = _load_perfbench(monkeypatch, "tracing").WRAPPED
    assert wrapped
    for mod_name, attr in wrapped:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_benchmark_smoke_passes_meet_their_gate(monkeypatch, tmp_path):
    # every workload at the smoke size through the harness's own pass and gate,
    # then one traced pass with every wrapped layer present
    workloads = _load_perfbench(monkeypatch, "workloads")
    tracing = _load_perfbench(monkeypatch, "tracing")
    for name in workloads.NAMES:
        results, error = workloads.run_pass(workloads.build(name, 1, "smoke"))[1:]
        problems, _ = workloads.gate(results, error)
        assert problems == [], (name, problems)

    tracer = tracing.Tracer()
    cases = workloads.build("poisson3d-neumann", 1, "smoke")
    with tracer.installed(), tracer.span("pass") as root:
        _, results, error = workloads.run_pass(cases, tracer, str(tmp_path))
    assert tracer.absent == []
    assert workloads.gate(results, error)[0] == []
    metrics = tracing.layer_metrics(tracer, root, results)
    assert metrics["fem.project_element_bulk_s"] > 0.0
    assert metrics["data.gN_points"] > 0

    # the patch metrics come from the CSV each traced estimate writes: it is
    # the report's own table, and the shapes read back are the table's
    for i, (case, _, report, path) in enumerate(results):
        own = tmp_path / f"own-{i}.csv"
        report.write_patches(str(own))
        assert Path(path).read_bytes() == own.read_bytes()
        shapes = tracing.patch_shapes(case, path)
        n_cons, k = report.patches[:, 0], np.diff(case.mesh._vertex_elem_offsets)
        assert shapes["equilibration.patch_solves"] == len(report.patches)
        assert shapes["equilibration.patches_constrained"] == np.sum((n_cons == k) & (k > 0))
        assert shapes["equilibration.patches_lsq"] == np.sum((n_cons == 0) & (k > 0))
        assert shapes["equilibration.patches_mixed"] == np.sum((n_cons > 0) & (n_cons < k))
        assert shapes["equilibration.constraint_residual_max"] == pytest.approx(
            report.patches[:, 3].max(), rel=1e-6, abs=0.0)


# wrapped names that no workload reaches: equilibrate solves its patches in
# batches and has not called solve_vertex_patch since the patch solves were
# stacked (the FOUND line on equilibration.solve_vertex_patch_s in CHANGES.md)
NOT_TRACED = {"equilibration.solve_vertex_patch"}


def test_every_wrapped_layer_is_traced_by_some_workload(monkeypatch, tmp_path):
    # a refactor that stops calling a wrapped layer would make its metric read 0
    # in every run; one traced smoke pass per workload must reach each name
    workloads = _load_perfbench(monkeypatch, "workloads")
    tracing = _load_perfbench(monkeypatch, "tracing")
    seen = set()
    for name in workloads.NAMES:
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.span("pass"):
            _, results, error = workloads.run_pass(workloads.build(name, 1, "smoke"), tracer,
                                                   str(tmp_path))
        assert tracer.absent == [] and workloads.gate(results, error)[0] == [], name
        seen |= {s.name for s in tracer.spans}
    wrapped = set(tracing.WRAPPED.values())
    assert NOT_TRACED <= wrapped
    assert wrapped - NOT_TRACED <= seen
    assert not NOT_TRACED & seen     # a name that comes back leaves the list


@pytest.mark.parametrize("dim", [3, 2])
def test_stage_harness_reports_every_stage(dim, capsys):
    # tests/stage_memory.py wraps its stages by name as the tracer does; a
    # stage renamed or no longer reached would leave its row or its audited
    # columns, the peak and the time of the run with the conformity audit
    assert stage_memory.main(["2", "1", "1e6", str(dim)]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        name, rest = line.split(maxsplit=1)
        rows[name] = re.findall(r"\S+ MB|\S+ ms|-", rest)
    # the mesh build, cold and for a second kappa1 of a cube that is alive
    for name in ("benchmark_mesh.cold", "benchmark_mesh.second_kappa1"):
        assert len(rows[name]) == 2 and rows[name][0].endswith(" MB") \
            and rows[name][1].endswith(" ms"), (name, rows[name])
    for mod_name, attr in stage_memory.STAGES:
        cells = rows[f"{mod_name.split('.')[-1]}.{attr}"]
        assert len(cells) == 4 and cells[1].endswith(" MB") and cells[3].endswith(" ms"), \
            (attr, cells)


def test_estimate_parameters():
    # the benchmark passes (mesh, sol, data, strategy) positionally and the
    # rest by keyword; a knob added or dropped here must be a deliberate change
    assert list(inspect.signature(fluxbound.estimate).parameters) == [
        "mesh", "sol", "data", "strategy", "check_conformity", "patch_report_path"]


def test_eta1_terms_parameters():
    # the closed form needs no quadrature degree; the tracer wraps this name
    from fluxbound.reconstruction import eta1_terms
    assert list(inspect.signature(eta1_terms).parameters) == ["mesh", "v1"]


def test_run_layer_parameters():
    # output paths and verbosity are not part of a run: the CLI writes the
    # patch table from the report that run_benchmark returns
    assert list(inspect.signature(fluxbound.run_benchmark).parameters) == ["config", "mesh"]
    assert [f.name for f in dataclasses.fields(fluxbound.RunConfig)] == [
        "dim", "m", "kappa1", "kappa2", "strategy", "conformity"]


def test_public_names():
    assert len(PUBLIC) == 33
    assert len(fluxbound.__all__) == len(set(fluxbound.__all__))
    assert set(fluxbound.__all__) == PUBLIC
    for name in fluxbound.__all__:
        assert hasattr(fluxbound, name), name
