import dataclasses
import io
import math
from dataclasses import replace

import numpy as np
import pytest

import fluxbound.benchmark as bm
import fluxbound.cli as cli
import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
from fluxbound.errors import (ConformityAuditFailed, DivergenceAuditFailed, MeshFormatError,
                              NoConvergence)


# ---------------------------------------------------------------------------
# exact solution
# ---------------------------------------------------------------------------

def test_equal_kappa_closed_form():
    # kappa1 = kappa2 = kappa: u = 1 - cosh(kappa x)/cosh(kappa), evaluated in
    # the overflow-safe form 1 - (e^{k(x-1)} + e^{-k(x+1)})/(1 + e^{-2k})
    for kappa in (0.5, 3.0, 40.0):
        ex = bm.exact_solution(kappa, kappa)
        x = np.linspace(-1.0, 1.0, 201)
        closed = 1.0 - (np.exp(kappa * (x - 1.0)) + np.exp(-kappa * (x + 1.0))) \
            / (1.0 + math.exp(-2.0 * kappa))
        assert np.abs(ex.u1(x) - closed).max() < 1e-12


def test_condition_residuals_contract():
    for k1, k2 in ((1e-3, 1e6), (1.0, 1e6), (1e4, 1e6), (7.0, 7.0), (1e-3, 1e-2)):
        ex = bm.exact_solution(k1, k2)
        assert ex.condition_residuals.max() <= 1e-10


def test_extreme_kappas_no_overflow():
    ex = bm.exact_solution(1e-3, 1e6)
    x = np.linspace(-1.0, 1.0, 10001)
    u = ex.u1(x)
    assert np.all(np.isfinite(u))
    assert np.abs(u).max() <= 1.001
    assert np.isfinite(ex.u1(np.array([0.0]))[0])
    du = ex.du1(x)
    assert np.all(np.isfinite(du))


def test_boundary_and_interface_values():
    ex = bm.exact_solution(2.0, 50.0)
    assert abs(ex.u1(np.array([-1.0]))[0]) < 1e-12
    assert abs(ex.u1(np.array([1.0]))[0]) < 1e-12
    left = ex.u1(np.array([-1e-12]))[0]
    right = ex.u1(np.array([0.0]))[0]
    assert left == pytest.approx(right, rel=1e-9)
    dl = ex.du1(np.array([-1e-12]))[0]
    dr = ex.du1(np.array([0.0]))[0]
    assert dl == pytest.approx(dr, rel=1e-8, abs=1e-12)


def test_energy_is_positive_and_scales():
    ex2 = bm.exact_solution(1.0, 1.0, dim=2)
    ex3 = bm.exact_solution(1.0, 1.0, dim=3)
    assert ex3.energy2 == pytest.approx(2.0 * ex2.energy2, rel=1e-13)
    assert ex2.energy2 > 0


# ---------------------------------------------------------------------------
# runs and sweeps
# ---------------------------------------------------------------------------

def test_run_benchmark_row_contents():
    rep, row = bm.run_benchmark(bm.RunConfig(dim=3, m=2, kappa1=1.0, kappa2=1.0))
    assert row["ndof"] == 1 * 3 ** 2
    assert row["d"] == 3 and row["M"] == 2
    assert row["eta_tau"] >= row["true_error"] * (1 - 1e-8)
    assert row["eta_taustar"] <= row["eta_tau"] * (1 + 1e-12)
    assert row["osc_f"] == pytest.approx(0.0, abs=1e-13)
    assert row["osc_gn"] == 0.0
    line = bm.format_row(row)
    assert len(line.split(",")) == len(bm.CSV_HEADER.split(","))


def _true_error_routes(config):
    # (direct, energy) true errors of the benchmark's Galerkin solution
    mesh = bm.benchmark_mesh(config)
    sol = fem.solve_problem(mesh, bm.benchmark_data(config))
    return est.true_error(mesh, sol, bm.exact_solution(config.kappa1, config.kappa2, config.dim))


def test_pythagoras_route_cross_validation():
    # smooth solution: both true-error routes agree tightly
    direct, energy = _true_error_routes(bm.RunConfig(dim=2, m=8, kappa1=1.0, kappa2=1.0))
    assert energy == pytest.approx(direct, rel=1e-8)
    # resolved-layer case: fixed-degree quadrature captures the layer well
    direct, energy = _true_error_routes(bm.RunConfig(dim=2, m=64, kappa1=20.0, kappa2=20.0))
    assert energy == pytest.approx(direct, rel=1e-6)
    # unresolved-layer case (width 1/kappa1 far below h): route (a) commits an
    # O(percent) quadrature error on the layer elements; route (b) is exact and
    # is the reference
    direct, energy = _true_error_routes(bm.RunConfig(dim=3, m=8, kappa1=100.0, kappa2=1e6))
    assert energy == pytest.approx(direct, rel=0.05)


def test_run_benchmark_runs_no_direct_quadrature(monkeypatch):
    # the row's true error is the energy route alone: no degree-10 quadrature
    degrees = []
    integrate = est.integrate_simplices

    def spy(fn, pts, measures, degree):
        degrees.append(degree)
        return integrate(fn, pts, measures, degree)

    config = bm.RunConfig(dim=3, m=4)
    monkeypatch.setattr(est, "integrate_simplices", spy)
    rep, row = bm.run_benchmark(config)
    # the estimate integrates nothing by quadrature either; the spy does see
    # the direct route's call
    assert degrees == []
    true_errors = _true_error_routes(config)
    assert degrees == [est.TRUE_ERROR_DEGREE]
    assert row["true_error"] == true_errors[1]
    assert row["ieff_tau"] == rep.eta_tau / row["true_error"]
    assert row["ieff_taustar"] == rep.eta_taustar / row["true_error"]


def _csv_text(configs) -> str:
    buf = io.StringIO()
    bm.write_csv((bm.run_benchmark(c)[1] for c in configs), buf)
    return buf.getvalue()


def test_csv_determinism_modulo_runtime(tmp_path):
    cfg = bm.RunConfig(dim=2, m=4, kappa1=2.0, kappa2=40.0)
    s1 = _csv_text(bm.sweep_kappa(cfg, [2.0, 20.0]))
    s2 = _csv_text(bm.sweep_kappa(cfg, [2.0, 20.0]))

    def strip_runtime(text):
        return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

    assert strip_runtime(s1) == strip_runtime(s2)


def test_sweep_partial_flush_on_failure(tmp_path, monkeypatch):
    cfg = bm.RunConfig(dim=2, m=2, kappa1=1.0, kappa2=10.0)
    # invalid configurations never reach a run; the second solve fails inside one
    solve, calls = bm.solve_problem, []

    def second_fails(mesh, data):
        calls.append(mesh)
        if len(calls) == 2:
            raise NoConvergence("boom")
        return solve(mesh, data)

    monkeypatch.setattr(bm, "solve_problem", second_fails)
    configs = bm.sweep_mesh(cfg, [2, 3])
    with open(tmp_path / "rows.csv", "w", encoding="utf-8") as fh, pytest.raises(NoConvergence):
        bm.write_csv((bm.run_benchmark(c)[1] for c in configs), fh)
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the M=2 row written before the failure


def test_sweeps_validate_every_configuration():
    cfg = bm.RunConfig(dim=2, m=2, kappa1=1.0, kappa2=10.0)
    assert [c.m for c in bm.sweep_mesh(cfg)] == list(bm.DEFAULT_MESH_SWEEP)
    assert [c.kappa1 for c in bm.sweep_kappa(replace(cfg, kappa2=1e6))] == \
        list(bm.DEFAULT_KAPPA1_SWEEP)
    with pytest.raises(ValueError):
        bm.sweep_mesh(cfg, [2, -1])
    with pytest.raises(ValueError):
        bm.sweep_kappa(cfg, [1.0, 100.0])   # above kappa2


def test_sweeps_reject_an_empty_list():
    cfg = bm.RunConfig(dim=2, m=2, kappa1=1.0, kappa2=10.0)
    with pytest.raises(ValueError, match="at least one value"):
        bm.sweep_kappa(cfg, [])
    with pytest.raises(ValueError, match="at least one value"):
        bm.sweep_mesh(cfg, [])


def _unchecked_config(**changes):
    """A RunConfig built without __post_init__, as if validation were skipped."""
    cfg = object.__new__(bm.RunConfig)
    for f in dataclasses.fields(bm.RunConfig):
        object.__setattr__(cfg, f.name, changes.get(f.name, f.default))
    return cfg


@pytest.mark.parametrize("changes", [{"dim": 1}, {"strategy": "bogus"}],
                         ids=["dim1", "bad-strategy"])
def test_config_rejects_what_a_run_would_reject(changes):
    with pytest.raises(ValueError):
        bm.RunConfig(**changes)
    # the sweeps revalidate each configuration they build, so a bad base fails
    # while the list of runs is made, before any row is written
    base = _unchecked_config(**changes)
    with pytest.raises(ValueError):
        bm.sweep_mesh(base, [2])
    with pytest.raises(ValueError):
        bm.sweep_kappa(base, [1.0])


@pytest.mark.parametrize("changes", [
    {"dim": 2.0}, {"dim": True}, {"m": 2.5}, {"m": True}, {"m": "4"},
    {"kappa2": math.inf}, {"kappa1": math.inf, "kappa2": math.inf}, {"kappa1": math.nan},
    {"kappa1": "1"}, {"kappa2": None}, {"kappa1": True},
], ids=["dim-float", "dim-bool", "m-float", "m-bool", "m-str", "kappa2-inf", "both-inf",
        "kappa1-nan", "kappa1-str", "kappa2-none", "kappa1-bool"])
def test_config_rejects_bad_types_and_non_finite_kappa(changes):
    # refused when the configuration is made, not inside the geometry code
    with pytest.raises(ValueError):
        bm.RunConfig(**{"dim": 2, "m": 2, **changes})


def test_config_accepts_numpy_integers():
    cfg = bm.RunConfig(dim=np.int64(2), m=np.int32(2), kappa1=np.float64(1.0), kappa2=1.0)
    assert bm.run_benchmark(cfg)[1]["M"] == 2


def test_sweep_mesh_ndof_column():
    cfg = bm.RunConfig(dim=3, m=2, kappa1=1.0, kappa2=1.0)
    rows = [bm.run_benchmark(c)[1] for c in bm.sweep_mesh(cfg, [2, 3])]
    for row, m in zip(rows, (2, 3)):
        assert row["ndof"] == (m - 1) * (m + 1) ** 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_single_run_stdout(capsys):
    code = cli.main(["estimate", "--dim", "2", "--m", "2",
                     "--kappa1", "1", "--kappa2", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == bm.CSV_HEADER
    assert len(lines) == 2


def test_cli_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["estimate", "--dim", "2", "--m", "2", "--kappa2", "50",
                     "--sweep-kappa", "1,10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_mesh_file_run(tmp_path, capsys):
    mesh = geo.build_cube_mesh(2, 2, 1.0)
    path = tmp_path / "square.mesh"
    geo.write_mesh(mesh, str(path))
    code = cli.main(["estimate", "--kappa1", "1", "--kappa2", "1",
                     "--mesh", str(path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = lines[1].split(",")
    header = bm.CSV_HEADER.split(",")
    assert row[header.index("true_error")] == ""  # no exact solution
    assert row[header.index("eta_tau")] != ""


def test_cli_mesh_file_with_an_unused_point(tmp_path, capsys):
    # a point that no element uses is valid input, not a solver failure
    path = tmp_path / "square.mesh"
    geo.write_mesh(geo.build_cube_mesh(2, 2, 1.0), str(path))
    text = path.read_text(encoding="utf-8").replace("POINTS 9\n", "POINTS 10\n", 1)
    path.write_text(text.replace("CELLS", "3 3\nCELLS", 1), encoding="utf-8")
    mesh = geo.read_mesh(str(path))
    assert mesh.n_points == 10 and mesh.simplices.max() == 8
    assert cli.main(["estimate", "--mesh", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == bm.CSV_HEADER and len(lines) == 2


def test_cli_verbose_patch_report(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["estimate", "--dim", "2", "--m", "2", "--kappa1", "1",
                     "--kappa2", "1", "--out", str(out), "--verbose"])
    assert code == 0
    patches = tmp_path / "run.csv.patches.csv"
    assert patches.exists()
    assert patches.read_text().startswith("vertex,")


def test_cli_exit_codes(monkeypatch):
    def boom_audit(*a, **k):
        raise DivergenceAuditFailed("boom")

    monkeypatch.setattr(cli, "run_benchmark", boom_audit)
    assert cli.main(["estimate"]) == 2

    def boom_conformity(*a, **k):
        raise ConformityAuditFailed("boom")

    monkeypatch.setattr(cli, "run_benchmark", boom_conformity)
    assert cli.main(["estimate"]) == 2

    def boom_solver(*a, **k):
        raise NoConvergence("boom")

    monkeypatch.setattr(cli, "run_benchmark", boom_solver)
    assert cli.main(["estimate"]) == 3


def test_cli_stdout_keeps_rows_before_a_failed_run(monkeypatch, capsys):
    calls = []

    def second_fails(config, mesh=None, patch_report_path=None):
        calls.append(config)
        if len(calls) == 2:
            raise NoConvergence("boom")
        return None, dict.fromkeys(bm.CSV_HEADER.split(","), 1)

    monkeypatch.setattr(cli, "run_benchmark", second_fails)
    assert cli.main(["estimate", "--sweep-kappa", "1,10,100"]) == cli.EXIT_SOLVER == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [bm.CSV_HEADER, ",".join(["1"] * 14)]
    assert captured.err.startswith("solver failure: ")
    assert [c.kappa1 for c in calls] == [1.0, 10.0]


@pytest.mark.parametrize("sweep", ["--sweep-kappa", "--sweep-mesh"])
def test_cli_mesh_file_excludes_sweeps(tmp_path, capsys, sweep):
    path = tmp_path / "square.mesh"
    geo.write_mesh(geo.build_cube_mesh(2, 2, 1.0), str(path))
    assert cli.main(["estimate", "--mesh", str(path), sweep, "2"]) == cli.EXIT_INPUT
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--m", "0"], ["--kappa1", "-1"], ["--sweep-kappa", "1e7"],
                                  ["--sweep-mesh", "2,0"], ["--sweep-kappa", "1,abc"]],
                         ids=["m0", "negative-kappa1", "kappa1-above-kappa2", "sweep-m0",
                              "not-a-number"])
def test_cli_bad_values_exit_before_opening_the_output(tmp_path, capsys, args):
    out = tmp_path / "rows.csv"
    assert cli.main(["estimate", *args, "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [["--sweep-kappa", ","], ["--sweep-mesh="]],
                         ids=["sweep-kappa-comma", "sweep-mesh-empty"])
def test_cli_empty_sweep_is_an_input_error(tmp_path, capsys, args):
    # an empty list runs nothing: exit 4 without a header, not 0 with one
    out = tmp_path / "rows.csv"
    assert cli.main(["estimate", "--dim", "2", "--kappa1", "1", "--kappa2", "10", *args,
                     "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()
    assert cli.main(["estimate", "--dim", "2", *args]) == cli.EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_cli_usage_errors_exit_input(capsys):
    assert cli.main(["estimate", "--dim", "4"]) == cli.EXIT_INPUT
    assert cli.main(["estimate", "--no-such-flag"]) == cli.EXIT_INPUT
    assert cli.main([]) == cli.EXIT_INPUT
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["estimate", "--help"]) == cli.EXIT_OK
    assert "--sweep-kappa" in capsys.readouterr().out


TRIANGLE = ("DIM 2\nPOINTS 3\n0 0\n1 0\n0 1\nCELLS 1\n{cell}\n"
            "BOUNDARY 3\n0 1 D\n0 2 N\n1 2 N\n")


@pytest.mark.parametrize("cell", ["0 1 2 abc", "0 1 2.5 1.0", "0 1 2 -1.0"],
                         ids=["kappa-not-a-number", "cell-id-not-an-integer", "negative-kappa"])
def test_malformed_mesh_file_is_an_input_error(tmp_path, capsys, cell):
    path = tmp_path / "bad.mesh"
    path.write_text(TRIANGLE.format(cell=cell), encoding="utf-8")
    with pytest.raises(MeshFormatError):
        geo.read_mesh(str(path))
    assert cli.main(["estimate", "--mesh", str(path)]) == cli.EXIT_INPUT == 4
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("text", [
    "DIM 2\nPOINTS 3\n0 0\n1 0\n2 0\nCELLS 1\n0 1 2 1.0\nBOUNDARY 0\n",
    "DIM 2\nPOINTS 5\n0 0\n1 0\n0 1\n0 -1\n1 1\nCELLS 3\n0 1 2 1.0\n0 1 3 1.0\n"
    "0 1 4 1.0\nBOUNDARY 0\n",
    None], ids=["degenerate", "non-conforming", "missing"])
def test_cli_input_errors_exit_code(tmp_path, capsys, text):
    path = tmp_path / "input.mesh"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert cli.main(["estimate", "--mesh", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
