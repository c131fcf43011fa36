import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import fluxbound.fem as fem
import fluxbound.geometry as geo
from fluxbound.errors import KappaJumpWarning, NoConvergence, UnsolvableProblem, UnsupportedDegree

import oracles
from conftest import (DELAUNAY_DATA, ZERO_DATA, ZONED_DATA, delaunay_mesh, dense_projection_oracle,
                      random_simplex, zoned_mesh)


def one_element_mesh(pts, kappa, dirichlet=()):
    d = pts.shape[1]
    cells = np.arange(d + 1)[None, :]
    tags = {}
    for i in range(d + 1):
        key = tuple(int(v) for v in sorted(np.delete(cells[0], i)))
        tags[key] = "D" if i in dirichlet else "N"
    return geo.build_mesh(pts, cells, kappa, tags)


@pytest.mark.parametrize("change", ["nan", "inf", "long", "short"])
def test_vertex_values_must_be_finite_and_one_per_point(two_triangle_square, change):
    mesh = two_triangle_square
    vals = {"nan": np.full(mesh.n_points, np.nan), "inf": np.full(mesh.n_points, np.inf),
            "long": np.zeros(mesh.n_points + 1), "short": np.zeros(mesh.n_points - 1)}[change]
    with pytest.raises(ValueError):
        fem.FemSolution.from_vertex_values(mesh, vals, ZERO_DATA)


def test_stiffness_rows_sum_to_zero(unit_triangle):
    # at kappa = 0 the element matrix is the stiffness; at kappa = 1 it adds the mass
    mesh = one_element_mesh(unit_triangle, 0.0, dirichlet=(0,))
    stiff = fem.element_matrices(mesh)
    assert np.abs(stiff[0].sum(axis=1)).max() < 1e-14
    mass = fem.element_matrices(mesh.with_kappa(1.0)) - stiff
    assert mass[0].sum() == pytest.approx(0.5, rel=1e-14)  # int 1 over K


@pytest.mark.parametrize("case", ["cube-2", "cube-3", "cube-4", "cube-5", "delaunay-3"])
def test_element_matrices_match_the_in_order_reference(case, monkeypatch):
    # each entry sums g_ic g_jc over the components in order, whatever the
    # block size; on the Kuhn cubes numpy's einsum order gives the same bits,
    # on the d = 3 Delaunay slivers it does not
    kind, dim = case.split("-")
    mesh = (delaunay_mesh(3, 1000) if kind == "delaunay"
            else geo.build_cube_mesh({"2": 8, "3": 4, "4": 3, "5": 2}[dim], int(dim), 1.0))
    kappa = np.random.default_rng(3).uniform(0.5, 2.0, mesh.n_elements)
    mesh = mesh.with_kappa(kappa)
    want = oracles.element_matrices(mesh)
    for chunk in (1, 7, fem.ELEMENT_CHUNK):
        monkeypatch.setattr(fem, "ELEMENT_CHUNK", chunk)
        got = np.concatenate([fem.element_matrices(mesh, blk)
                              for blk in fem.element_blocks(mesh.n_elements)])
        assert np.array_equal(got, want), chunk


def test_constant_solution_reproduced(two_triangle_square):
    # kappa = 1, f = 1, pure Neumann: exact solution u = 1 lies in V_h
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(two_triangle_square, data)
    assert np.abs(sol.u - 1.0).max() < 1e-12
    assert np.abs(sol.grad).max() < 1e-12


def test_affine_solution_exact_via_neumann_data():
    # u = x1 on the unit square, kappa = 0, Dirichlet on x1 = 0, g_N = n_x
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    tags = {(0, 2): "D", (0, 1): "N", (1, 3): "N", (2, 3): "N"}
    mesh = geo.build_mesh(pts, cells, 0.0, tags)

    def g_n(x):
        out = np.zeros(len(x))
        out[np.abs(x[:, 0] - 1.0) < 1e-12] = 1.0
        out[np.abs(x[:, 1]) < 1e-12] = 0.0
        out[np.abs(x[:, 1] - 1.0) < 1e-12] = 0.0
        return out

    data = fem.ProblemData(f=lambda x: np.zeros(len(x)), g_N=g_n, data_degree=2)
    sol = fem.solve_problem(mesh, data)
    assert np.abs(sol.u - pts[:, 0]).max() < 1e-10  # P1 exactness at vertices
    assert np.allclose(sol.grad, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)


def test_unsolvable_pure_neumann_zero_kappa(two_triangle_square):
    mesh = two_triangle_square
    tags_all_n = {tuple(int(v) for v in mesh.facets[fi]): "N"
                  for fi in np.flatnonzero(mesh.facet_tag != geo.INTERIOR)}
    m0 = geo.build_mesh(mesh.points, mesh.simplices, 0.0, tags_all_n)
    with pytest.raises(UnsolvableProblem):
        fem.assemble(m0, fem.ProblemData(f=lambda x: np.ones(len(x))))


@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_dirichlet_vertices_are_read_only_where_kappa_vanishes(two_triangle_square, kappa,
                                                                 monkeypatch):
    # a pure-Neumann mesh is solvable unless kappa vanishes everywhere, so
    # assemble looks for Dirichlet vertices only then
    mesh = two_triangle_square.with_kappa(kappa)
    calls = []
    dirichlet_vertices = geo.Mesh.dirichlet_vertices
    monkeypatch.setattr(geo.Mesh, "dirichlet_vertices",
                        property(lambda self: calls.append(1) or dirichlet_vertices.fget(self)))
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    if kappa > 0:
        assert np.all(np.isfinite(fem.assemble(mesh, data).A.vals))
        assert calls == []
    else:
        with pytest.raises(UnsolvableProblem, match="^kappa vanishes everywhere and there "
                                                    "is no Dirichlet boundary$"):
            fem.assemble(mesh, data)
        assert calls == [1]


def test_assemble_refuses_a_kappa_whose_square_overflows(monkeypatch):
    # kappa^2 = 1e310: the solve returned after one step with residual and
    # energy NaN; it refuses before any element matrix, and without the
    # overflow warning
    def no_element_matrices(*args):
        raise AssertionError("an element matrix was built")

    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    with monkeypatch.context() as m:
        m.setattr(fem, "element_matrices", no_element_matrices)
        with pytest.raises(UnsolvableProblem, match="kappa"):
            fem.solve_problem(geo.build_cube_mesh(4, 2, 1e155), data)
    # the largest kappa whose square is finite is accepted
    assert math.isfinite(fem.KAPPA_MAX ** 2)
    system = fem.assemble(geo.build_cube_mesh(2, 2, fem.KAPPA_MAX), data)
    assert np.all(np.isfinite(system.A.vals))


@pytest.mark.parametrize("dim,m", [(2, 4), (3, 2), (3, "delaunay")])
def test_blocked_assembly_matches_the_one_shot_route(dim, m, monkeypatch):
    # the element blocks add the entries of the element matrices in element
    # order, as the one-shot route does, so the padded rows and the load vector
    # are the same arrays for any block size: Dirichlet and Neumann faces, a
    # kappa jump and a point that no element uses; on the Delaunay slivers the
    # component order of the stiffness sums shows too
    if m == "delaunay":
        mesh, data = delaunay_mesh(dim, 1000).with_kappa(1.0), DELAUNAY_DATA
    else:
        mesh, data = zoned_mesh(dim, m), ZONED_DATA
    A_ref, b_ref = oracles.assemble_one_shot(mesh, data)
    A_ref = oracles.from_scipy(A_ref)
    for chunk in (1, 7, mesh.n_elements):
        monkeypatch.setattr(fem, "ELEMENT_CHUNK", chunk)
        system = fem.assemble(mesh, data)
        for got, want in ((system.A.vals, A_ref.vals), (system.A.cols, A_ref.cols),
                          (system.b, b_ref)):
            assert got.dtype == want.dtype and np.array_equal(got, want), chunk


@pytest.mark.parametrize("case", ["zoned-2", "zoned-3", "delaunay-2"])
def test_matvec_equals_scipys_bit_for_bit(case):
    # the padded rows sum each row slot after slot from 0, as scipy's
    # csr_matvec does on the one-shot route's own CSR matrix; x spans 40
    # orders of magnitude and holds zeros
    mesh, data = {"zoned-2": (zoned_mesh(2, 8), ZONED_DATA),
                  "zoned-3": (zoned_mesh(3, 4), ZONED_DATA),
                  "delaunay-2": (delaunay_mesh(2, 2000), DELAUNAY_DATA)}[case]
    A = fem.assemble(mesh, data).A
    S = oracles.assemble_one_shot(mesh, data)[0]
    rng = np.random.default_rng(7)
    n = S.shape[0]
    for _ in range(5):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        x[rng.random(n) < 0.1] = 0.0
        assert (A @ x).tobytes() == (S @ x).tobytes()


def test_solve_identity_system(rng):
    b = rng.standard_normal(50)
    x, it, res = fem.solve(oracles.from_scipy(sp.eye(50, format="csr")), b)
    assert np.allclose(x, b, atol=1e-14)
    assert res <= 1e-12


def test_solve_rejects_indefinite_dense():
    A = oracles.from_scipy(sp.csr_matrix(np.diag([1.0, -2.0, 3.0])))
    with pytest.raises(UnsolvableProblem):
        fem.solve(A, np.ones(3))
    # symmetric with positive diagonal but indefinite: caught by Cholesky
    M = np.array([[1.0, 4.0], [4.0, 1.0]])
    with pytest.raises(UnsolvableProblem):
        fem.solve(oracles.from_scipy(sp.csr_matrix(M)), np.ones(2))


def test_solve_rejects_a_matrix_of_another_row_count():
    system = fem.assemble(zoned_mesh(2, 4), ZONED_DATA)
    for b in (system.b[:-1], np.append(system.b, 1.0)):
        with pytest.raises(ValueError, match="rows"):
            fem.solve(system.A, b)


def test_import_loads_no_scipy():
    # the package needs numpy alone; importing scipy.sparse took a third of the
    # set-up of a small problem
    env = dict(os.environ, PYTHONPATH=str(Path(fem.__file__).parents[1]))
    code = ("import sys, fluxbound; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_solve_benchmark_residual():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=4, kappa1=1.0, kappa2=1.0)
    mesh = benchmark_mesh(cfg)
    sol = fem.solve_problem(mesh, benchmark_data(cfg))
    assert sol.residual <= 1e-12


def test_pcg_path_and_no_convergence():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=6, kappa1=1.0, kappa2=1.0)  # 455 dofs: PCG path
    mesh = benchmark_mesh(cfg)
    system = fem.assemble(mesh, benchmark_data(cfg))
    x, it, res = fem.solve(system.A, system.b)
    assert it > 1 and res <= 1e-12
    with pytest.raises(NoConvergence):
        fem.solve(system.A, system.b, max_iter=2)


def test_pcg_residual_small_entry_by_entry_across_a_kappa_jump(monkeypatch):
    # f = kappa^2 on the right is 1e12 times the left's, so a residual small in
    # norm can still dwarf the left's entries; each entry must meet the target
    with pytest.warns(KappaJumpWarning):
        mesh = geo.build_cube_mesh(16, 2, lambda c: np.where(c[:, 0] < 0, 1.0, 1e6))
    data = fem.ProblemData(f=lambda x: np.where(x[:, 0] < 0, 1.0, 1e12) * np.cos(x[:, 0]))
    system = fem.assemble(mesh, data)
    assert len(system.b) >= fem.DENSE_CUTOFF   # the PCG path
    pcg, calls = fem._pcg, []

    def spy(*args):
        out = pcg(*args)
        calls.append((*args[2:], *out))
        return out

    monkeypatch.setattr(fem, "_pcg", spy)
    x, it, res = fem.solve(system.A, system.b)
    monkeypatch.setattr(fem, "_pcg", pcg)
    A, nb = oracles.assemble_one_shot(mesh, data)[0], np.linalg.norm(system.b)
    size = abs(A) @ np.abs(x) + np.abs(system.b)
    assert np.all(np.abs(system.b - A @ x) <= fem.ENTRY_TOL * size)
    assert res <= fem.SOLVE_TOL
    # the first solve misses the entry target; the correction runs only as deep
    # as the iterate misses, to ||r|| over twice the worse ratio, not to
    # SOLVE_TOL ||r||, and stops on the first step that meets that target
    (_, _, target0, x0, first), (r, _, target, _, more) = calls
    assert target0 == fem.SOLVE_TOL * nb and it == first + more
    assert np.array_equal(r, system.b - A @ x0)
    size0 = fem.ENTRY_TOL * (abs(A) @ np.abs(x0) + np.abs(system.b))
    worst = max(np.linalg.norm(r) / (fem.SOLVE_TOL * nb), (np.abs(r) / size0).max())
    assert worst > 1.0 and target == np.linalg.norm(r) / (2.0 * worst)
    assert target > 1e3 * fem.SOLVE_TOL * np.linalg.norm(r)
    with pytest.raises(NoConvergence):
        pcg(A, 1.0 / A.diagonal(), r, more - 1, target)
    # the correction gets what is left of max_iter; when that runs out it
    # cannot undo the first solve, which already met SOLVE_TOL
    for budget in (first, first + 1):
        xb, itb, resb = fem.solve(system.A, system.b, max_iter=budget)
        assert itb == first and np.array_equal(xb, x0) and resb <= fem.SOLVE_TOL


def test_pcg_meets_both_targets_on_a_delaunay_mesh():
    # on slivers the PCG recurrence residual drifts from b - A x, so a solve
    # that stops on the recurrence ends with small entries but a norm above
    # SOLVE_TOL; SOLVE_TOL lies near the round-off of b - A x itself (a direct
    # solve reads 4.0e-13), so the norm target holds up to eps || |A| |x| ||
    mesh = delaunay_mesh(2, 20000)
    system = fem.assemble(mesh, DELAUNAY_DATA)
    x, it, res = fem.solve(system.A, system.b)
    A = oracles.assemble_one_shot(mesh, DELAUNAY_DATA)[0]
    r, nb = system.b - A @ x, np.linalg.norm(system.b)
    assert res == np.linalg.norm(r) / nb
    size = abs(A) @ np.abs(x) + np.abs(system.b)
    assert res <= max(fem.SOLVE_TOL, np.finfo(float).eps * np.linalg.norm(size) / nb)
    assert np.all(np.abs(r) <= fem.ENTRY_TOL * size)


@pytest.mark.parametrize("m", [4, 16])
def test_solve_refuses_a_right_hand_side_whose_norm_overflows(m):
    # kappa^2 = 1e200 and every entry of b are finite, so assemble accepts the
    # problem, but ||b|| overflows: the dense path (M=4) would divide its
    # residual by it and PCG (M=16) would stop at once on the target
    # SOLVE_TOL ||b|| = inf (f = 1e160: the round-off of a larger constant f
    # would overflow when the data pass squares it)
    mesh = geo.build_cube_mesh(m, 2, 1e100)
    system = fem.assemble(mesh, fem.ProblemData(f=lambda x: np.full(len(x), 1e160)))
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(system.b)) and np.isinf(np.linalg.norm(system.b))
    assert (len(system.b) < fem.DENSE_CUTOFF) == (m == 4)
    with pytest.raises(UnsolvableProblem, match="not finite"):
        fem.solve(system.A, system.b)


def test_galerkin_orthogonality():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=2, m=4, kappa1=2.0, kappa2=2.0)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    system = fem.assemble(mesh, data)
    sol = fem.solve_problem(mesh, data)
    resid = system.b - system.A @ sol.u[system.free]
    assert np.abs(resid).max() <= 1e-12 * np.abs(system.b).max() * 10


def project_one(f, pts):
    """Vertex values of the elementwise L2 projection of f on the one-element mesh of pts."""
    mesh = one_element_mesh(pts, 0.0)
    return fem.project_element_bulk(mesh, fem.element_data(mesh, f, 8)[0])[0]


def test_project_element_identities(unit_triangle, rng):
    def f_affine(x):
        return 2.0 + 3.0 * x[:, 0] - x[:, 1]

    vals = project_one(f_affine, unit_triangle)
    assert np.allclose(vals, f_affine(unit_triangle), atol=1e-12)
    vals = project_one(lambda x: np.full(len(x), 7.0), unit_triangle)
    assert np.allclose(vals, 7.0, atol=1e-13)


def test_project_element_vs_dense_oracle(unit_triangle):
    def f(x):
        lam1 = 1.0 - x[:, 0] - x[:, 1]
        return lam1 ** 2

    ours = project_one(f, unit_triangle)
    oracle = dense_projection_oracle(f, unit_triangle, degree=10)
    assert np.abs(ours - oracle).max() < 1e-12


def test_project_facet_affine_and_zero():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = oracles.project_facet(lambda x: 1.0 + 2.0 * x[:, 0], seg)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)
    vals = oracles.project_facet(lambda x: np.zeros(len(x)), seg)
    assert np.allclose(vals, 0.0, atol=1e-14)


def test_project_facet_quadratic_hand_solution():
    # L2 fit of x^2 on [0,1] onto affine functions is (6x - 1)/6
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = oracles.project_facet(lambda x: x[:, 0] ** 2, seg)
    assert vals[0] == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert vals[1] == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_energy_norm_basics(two_triangle_square):
    mesh = two_triangle_square
    zero = oracles.energy_norm(mesh, lambda x: np.zeros(len(x)),
                               lambda x: np.zeros_like(x), 4)
    assert zero == 0.0
    m0 = geo.build_mesh(mesh.points, mesh.simplices, 0.0,
                        {tuple(int(v) for v in mesh.facets[fi]): "D"
                         for fi in np.flatnonzero(mesh.facet_tag != geo.INTERIOR)})

    def grad_x1(x):
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        return out

    val = oracles.energy_norm(m0, lambda x: x[:, 0], grad_x1, 2)
    assert val == pytest.approx(1.0, rel=1e-13)


def test_galerkin_identity_energy():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=2, kappa1=3.0, kappa2=3.0)
    mesh = benchmark_mesh(cfg)
    sol = fem.solve_problem(mesh, benchmark_data(cfg))
    assert sol.energy2 == pytest.approx(sol.compliance, rel=1e-10)
    assert oracles.energy_norm_fe(sol) ** 2 == pytest.approx(sol.energy2, rel=1e-10)


def test_energy_norm_fe_matches_quadrature(rng):
    mesh = geo.build_cube_mesh(2, 2, 2.5)
    vals = rng.standard_normal(mesh.n_points)
    sol = fem.FemSolution.from_vertex_values(mesh, vals, ZERO_DATA)
    exact = oracles.energy_norm_fe(sol)

    uloc = vals[mesh.simplices]

    # quadrature route via per-element evaluation
    from fluxbound.quadrature import rule_for
    rule = rule_for(2, 4)
    pts = mesh.points[mesh.simplices]
    acc = 0.0
    for lam, w in zip(rule.points, rule.weights):
        vv = uloc @ lam
        acc += w * ((sol.grad ** 2).sum(axis=1) + mesh.kappa ** 2 * vv ** 2)
    total = float(acc @ (mesh.volumes * 2.0))
    assert exact ** 2 == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# the data pass
# ---------------------------------------------------------------------------

class PointLog:
    """Data callable that keeps every point array it is called with."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def __call__(self, x):
        self.batches.append(x.copy())
        return self.fn(x)


def _elementwise(x):
    # column by column, so a value does not depend on the batch it comes in
    return np.exp(0.3 * x[:, 0]) * np.cos(x[:, 1] - 0.5 * x[:, -1]) + x[:, -1] ** 3


def _quadrature_data(fn, pts, measures, degree):
    # loads and ||fn - Pi fn||^2 by integrate_simplices, one node at a time
    from fluxbound.quadrature import integrate_simplices
    k = pts.shape[1] - 1
    loads = integrate_simplices(lambda x, lam: fem.data_values(fn, x, "f")[:, None] * lam,
                                pts, measures, degree)
    proj = fem._mass_inverse_times(loads, measures[:, None], k)
    sq = integrate_simplices(lambda x, lam: (fn(x) - proj @ lam) ** 2, pts, measures, degree)
    return loads, sq


def _distinct_nodes(k, data_degree):
    # the nodes of the one data rule; repeated nodes are equal rationals, so equal doubles
    from fluxbound.quadrature import rule_for
    points = rule_for(k, fem.data_rule_degree(data_degree)).points
    table = np.unique(points, axis=0)
    assert len(table) == len({tuple(p) for p in np.round(points, 12)})
    return table


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("chunk", [1, 5 * 69, 2 ** 17],
                         ids=["blocks-of-two", "several-blocks", "one-block"])
def test_data_pass_equals_quadrature(dim, chunk, monkeypatch, rng):
    # on elements and on Neumann facets, for blocks of one simplex (a mesh of
    # one), of two (the fewest a longer batch is cut into) and of several: the
    # loads equal integrate_simplices and osc_sq its quadrature against their
    # projection, both over the one data rule, bit for bit, and each simplex
    # sees each distinct node of that rule exactly once
    monkeypatch.setattr(fem, "DATA_CHUNK", chunk)
    single = one_element_mesh(random_simplex(dim, rng), 1.0, dirichlet=tuple(range(1, dim + 1)))
    for mesh in (single, geo.build_cube_mesh(3 if dim < 4 else 1, dim, 1.0)):
        nodes = mesh.neumann
        sets = [("f", fem.element_data, mesh.points[mesh.simplices], mesh.volumes),
                ("g_N", fem.neumann_data, mesh.points[mesh.facets[nodes]],
                 mesh.facet_measures[nodes])]
        for name, routine, pts, measures in sets:
            k = pts.shape[1] - 1
            for degree in (0, 1, 2, 3, 4, 8, 10):
                log = PointLog(_elementwise)
                loads, osc_sq = routine(mesh, log, degree)
                want_loads, want_sq = _quadrature_data(_elementwise, pts, measures,
                                                       fem.data_rule_degree(degree))
                assert np.array_equal(loads, want_loads), (name, degree)
                assert np.array_equal(osc_sq, want_sq), (name, degree)
                table = _distinct_nodes(k, degree)
                seen = np.unique(np.concatenate(log.batches), axis=0)
                assert len(seen) == sum(map(len, log.batches)), (name, degree)
                expected = sum(lj[:, None, None] * pts[:, j] for j, lj in enumerate(table.T))
                assert np.array_equal(seen, np.unique(expected.reshape(-1, dim), axis=0))
            # blocks of DATA_CHUNK // nodes simplices (two at least), the last
            # one taking a lone simplex left over
            per_block = [len(b) // len(table) for b in log.batches]
            size = max(2, chunk // len(table))
            assert sum(per_block) == len(pts)
            assert all(b == size for b in per_block[:-1])
            assert min(2, len(pts)) <= per_block[-1] <= size + 1
            if chunk < 2 ** 17 and name == "f" and len(pts) > 1:
                assert len(per_block) > 1


def _polynomial(rng, dim, degree):
    # seeded coefficients of every monomial of total degree <= degree, summed
    # monomial by monomial; with the sum of the magnitudes of the terms, the
    # scale of the polynomial's round-off
    powers = [p for p in itertools.product(range(degree + 1), repeat=dim) if sum(p) <= degree]
    coeffs = rng.uniform(-1.0, 1.0, len(powers))

    def fn(x, size=False):
        out = np.zeros(len(x))
        for c, p in zip(coeffs, powers):
            term = c * np.prod(x ** np.array(p), axis=1)
            out += np.abs(term) if size else term
        return out
    return fn


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 9, 11])
def test_data_pass_is_exact_for_data_of_the_declared_degree(dim, degree):
    # the data_degree contract: for f and g_N polynomials of that degree the
    # hat loads, and up to degree 4 both oscillation norms, equal quadrature
    # at MAX_DEGREE, exact for them, to 1e-12 relative to the loads of |data|
    # and to ||data||^2 (an affine datum has a round-off oscillation). At
    # degrees 9 and 11 an odd rule of the data's own degree would be one short
    # of the loads' degree; there the loads of |data| by the degree-13 rule,
    # whose weights are not all positive, can be negative, so the scale sums
    # the magnitudes of the data's terms instead
    from fluxbound.quadrature import MAX_DEGREE, integrate_simplices
    rng = np.random.default_rng(100 * dim + degree)
    mesh = geo.build_cube_mesh(2, dim, 1.0)
    f, g = _polynomial(rng, dim, degree), _polynomial(rng, dim, degree)
    sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points),
                                             fem.ProblemData(f=f, g_N=g, data_degree=degree))
    neu = mesh.neumann
    assert len(neu) > 0
    for fn, loads, osc_sq, pts, measures in (
            (f, sol.f_loads, sol.f_osc_sq, mesh.points[mesh.simplices], mesh.volumes),
            (g, sol.gn_loads, sol.gn_osc_sq, mesh.points[mesh.facets[neu]],
             mesh.facet_measures[neu])):
        def exact(integrand):
            return integrate_simplices(integrand, pts, measures, MAX_DEGREE)

        want = exact(lambda x, lam: fn(x)[:, None] * lam)
        proj = fem._mass_inverse_times(want, measures[:, None], pts.shape[1] - 1)
        want_sq = exact(lambda x, lam: (fn(x) - proj @ lam) ** 2)
        exact_osc = 2 * degree <= fem.OSC_DEGREE     # degrees 0..4
        size = exact(lambda x, lam: (np.abs(fn(x)) if exact_osc else fn(x, True))[:, None] * lam)
        assert np.all(np.abs(loads - want) <= 1e-12 * size)
        if exact_osc:
            assert np.all(np.abs(osc_sq - want_sq) <= 1e-12 * exact(lambda x, lam: fn(x) ** 2))


@pytest.mark.parametrize("degree", [2.5, 2.0, "2", None, True, False, -1])
def test_problem_data_refuses_a_data_degree_that_is_not_a_degree(degree):
    with pytest.raises(ValueError, match="data_degree"):
        fem.ProblemData(f=np.ones, data_degree=degree)


def test_problem_data_accepts_integer_degrees_up_to_the_maximum():
    from fluxbound.quadrature import MAX_DEGREE
    for degree in (0, 4, np.int64(8), MAX_DEGREE):
        assert fem.ProblemData(f=np.ones, data_degree=degree).data_degree == degree
    with pytest.raises(UnsupportedDegree, match="data_degree"):
        fem.ProblemData(f=np.ones, data_degree=MAX_DEGREE + 1)
