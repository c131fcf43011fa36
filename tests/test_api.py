"""The public names of the package and the layer functions the benchmark tracer wraps.

perfbench/tracing.py times the program by replacing module attributes by
name, and a name that has gone is only recorded as absent there, so a
cleanup of the package could drop a per-layer metric without a failure.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import fluxbound

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve(monkeypatch):
    wrapped = _load_tracing(monkeypatch).WRAPPED
    assert wrapped
    for mod_name, attr in wrapped:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_estimate_accepts_patch_report_path():
    assert "patch_report_path" in inspect.signature(fluxbound.estimate).parameters


def test_public_names():
    assert len(PUBLIC) == 33
    assert len(fluxbound.__all__) == len(set(fluxbound.__all__))
    assert set(fluxbound.__all__) == PUBLIC
    for name in fluxbound.__all__:
        assert hasattr(fluxbound, name), name
