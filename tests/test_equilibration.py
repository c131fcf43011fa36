import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import fluxbound.equilibration as eq
import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
from fluxbound.errors import InfeasibleConstraints, KappaJumpWarning

from conftest import (ZERO_DATA, kkt_min_norm_oracle, one_simplex, random_problem_data,
                      random_simplex, random_small_mesh)
from oracles import (extension, extension_volume_terms_subsimplex, integrate, integrate_facet,
                     patch_maps_nullspace, project_facet, sign_matrices_dense, simplex_measure,
                     solve_vertex_patch_reference, vertex_facets, vertex_patch)
import stage_memory
from test_fem import one_element_mesh


def _kappa_jump_mesh():
    """d=2 M=2 cube with kappa 0.5 left of x1 = 0 and 4000 right of it (mixed patches)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)  # the jump is the test case
        return geo.build_cube_mesh(2, 2, lambda c: np.where(c[:, 0] < 0, 0.5, 4000.0))


def _rebuilt(mesh, kappa=None, perm=None):
    """The same mesh with another kappa and/or vertex v relabelled perm[v]."""
    perm = np.arange(mesh.n_points) if perm is None else perm
    tags = {tuple(sorted(int(perm[v]) for v in mesh.facets[fi])):
            ("D" if mesh.facet_tag[fi] == geo.DIRICHLET else "N")
            for fi in np.flatnonzero(mesh.facet_tag != geo.INTERIOR)}
    pts = np.empty_like(mesh.points)
    pts[perm] = mesh.points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)
        return geo.build_mesh(pts, perm[mesh.simplices],
                              mesh.kappa if kappa is None else kappa, tags)


# ---------------------------------------------------------------------------
# averages and jumps
# ---------------------------------------------------------------------------

def _average_and_jump(mesh, grad):
    """Per-facet average and plus-minus jump of the normal flux, each side using
    its own outward normal (one-sided average and zero jump on the boundary)."""
    avg = np.zeros(mesh.n_facets)
    jump = np.zeros(mesh.n_facets)
    for fi, (ep, em) in enumerate(mesh.facet_elems):
        lp, lm = mesh.facet_local[fi]
        g = mesh.bary_grads[ep, lp]
        flux_plus = -g @ grad[ep] / np.linalg.norm(g)
        if em < 0:
            avg[fi] = flux_plus
            continue
        g = mesh.bary_grads[em, lm]
        flux_minus = g @ grad[em] / np.linalg.norm(g)   # along the plus normal
        avg[fi] = 0.5 * (flux_plus + flux_minus)
        jump[fi] = flux_plus - flux_minus
    return avg, jump


def test_affine_field_has_zero_jumps(two_triangle_square):
    mesh = two_triangle_square
    sol = fem.FemSolution.from_vertex_values(mesh, mesh.points @ [2.0, -1.0] + 0.5, ZERO_DATA)
    avg, jump = _average_and_jump(mesh, sol.grad)
    assert np.abs(jump).max() < 1e-13
    assert np.abs(eq.facet_average(mesh, sol.grad) - avg).max() < 1e-14


def test_hat_function_jump_magnitude_two():
    # u = |x1| on two triangles sharing the edge x1 = 0
    pts = np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    tags = {(0, 1): "N", (0, 2): "N", (1, 3): "N", (2, 3): "N"}
    mesh = geo.build_mesh(pts, cells, 1.0, tags)
    sol = fem.FemSolution.from_vertex_values(mesh, np.abs(mesh.points[:, 0]), ZERO_DATA)
    avg, jump = _average_and_jump(mesh, sol.grad)
    interior = np.flatnonzero(mesh.facet_tag == geo.INTERIOR)
    assert len(interior) == 1
    assert abs(jump[interior[0]]) == pytest.approx(2.0, rel=1e-14)
    assert abs(avg[interior[0]]) < 1e-14
    boundary = mesh.facet_tag != geo.INTERIOR
    assert np.abs(jump[boundary]).max() == 0.0  # stated convention
    assert np.abs(eq.facet_average(mesh, sol.grad) - avg).max() < 1e-14


# ---------------------------------------------------------------------------
# dual basis
# ---------------------------------------------------------------------------

def dual_basis(facet_vertices):
    """Rows are the vertex values of the facet dual functions psi^m, the
    inverse of the facet P1 mass matrix, as the equilibration applies it."""
    d = facet_vertices.shape[1]
    return fem._mass_inverse_times(np.eye(d), simplex_measure(facet_vertices), d - 1)


def test_dual_basis_unit_segment():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    psi = dual_basis(seg)
    assert np.allclose(psi, [[4.0, -2.0], [-2.0, 4.0]], atol=1e-13)


def test_dual_basis_biorthogonality(rng):
    for d in (2, 3, 4):
        pts = random_simplex(d, rng)
        fpts = pts[1:]  # one facet
        psi = dual_basis(fpts)
        for m in range(d):
            for n in range(d):
                def integrand(x, m=m, n=n):
                    mu = np.linalg.lstsq((fpts[1:] - fpts[0]).T,
                                         (x - fpts[0]).T, rcond=None)[0].T
                    lam = np.column_stack([1.0 - mu.sum(axis=1), mu])
                    return (lam @ psi[m]) * lam[:, n]

                val = integrate_facet(integrand, fpts, 4)
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_dual_basis_symmetry_equilateral():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]])
    psi = dual_basis(tri)
    assert psi[0, 0] == pytest.approx(psi[1, 1], rel=1e-13)
    assert psi[0, 1] == pytest.approx(psi[1, 2], rel=1e-13)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def test_extension_plain_for_small_kappa(unit_triangle):
    ext = extension(unit_triangle, 0.0, 1)
    assert ext.plain


def test_extension_collapsed_geometry(unit_triangle):
    q = one_simplex(unit_triangle)
    kappa = 2.0 / q.inradii[0]  # kappa * rho = 2
    ext = extension(unit_triangle, kappa, 2)
    assert not ext.plain
    assert ext.delta == pytest.approx(0.25, rel=1e-13)
    lam_p = np.array([0.25, 0.25, 0.5])
    assert np.allclose(ext.x_p, lam_p @ unit_triangle, atol=1e-13)
    vols = geo.simplex_geometry(ext.subsimplices).volumes
    assert sum(vols) == pytest.approx(q.volumes[0], rel=1e-12)


def test_extension_boundary_agreement(rng):
    for d in (2, 3):
        pts = random_simplex(d, rng)
        q = one_simplex(pts)
        ext = extension(pts, 5.0 / q.inradii[0], 0)
        plain = extension(pts, 0.0, 0)
        for i in range(d + 1):
            fpts = np.delete(pts, i, axis=0)
            w = rng.dirichlet(np.ones(d), size=40)
            x = w @ fpts
            assert np.abs(ext.evaluate(x) - plain.evaluate(x)).max() < 1e-12
        assert ext.evaluate(pts[[0]])[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(ext.evaluate(ext.x_p[None, :])[0]) < 1e-12


def test_extension_norm_scaling_bracket(rng):
    # ||theta*||^2 / (h^{d-1} min(h, 1/kappa)) stays in a fixed bracket
    pts = random_simplex(3, rng)
    q = one_simplex(pts)
    h = q.diameters[0]
    ratios = []
    for kappa in (10.0, 100.0, 1000.0):
        kappa = kappa / q.inradii[0]  # ensure kappa*rho = 10, 100, 1000
        ext = extension(pts, kappa, 1)
        ratios.append(ext.l2_norm_sq() / (h ** 2 * min(h, 1.0 / kappa)))
    assert max(ratios) / min(ratios) < 3.0
    assert min(ratios) > 0.0


def test_extension_norm_quadrature_cross_check(unit_triangle):
    q = one_simplex(unit_triangle)
    ext = extension(unit_triangle, 3.0 / q.inradii[0], 2)
    total = sum(integrate(lambda x: ext.evaluate(x) ** 2, sub, 6)
                for sub in ext.subsimplices)
    assert ext.l2_norm_sq() == pytest.approx(total, rel=1e-11)


@pytest.mark.parametrize("case", [2, 3, 4, "perturbed"])
def test_extension_volume_terms_match_subsimplex_integrals(case):
    # the volume part of D on a layer row, int f theta* - int grad u_h . grad theta*
    # - kappa^2 int u_h theta*, rebuilt sub-simplex by sub-simplex from the
    # collapsed extension closures; the code takes the stiffness term from the
    # plain hat, |K| grad u_h . grad lambda_n, as theta* = theta_n on dK
    if case == "perturbed":
        mesh = random_small_mesh(np.random.default_rng(7), dim=3, allow_zero_kappa=False)
    else:
        mesh = geo.build_cube_mesh(2, case, 30.0)
    dim = mesh.dim
    coef = np.arange(1.0, dim + 1)

    def f(x):
        return 1.0 + x @ coef   # affine, so every integrand below is quadratic

    data = fem.ProblemData(f=f)
    sol = fem.solve_problem(mesh, data)
    sel = np.flatnonzero(mesh.kappa * mesh.inradii > 1.0)
    if case == "perturbed":
        assert 0 < len(sel) < mesh.n_elements
    else:
        assert len(sel) == mesh.n_elements
    assert np.abs(sol.grad[sel]).max() > 0.0
    got = eq._extension_volume_terms(mesh, sol, sel)
    for row, e in enumerate(sel):
        pts = mesh.points[mesh.simplices[e]]
        g = one_simplex(pts).grads[0]
        uloc = sol.u[mesh.simplices[e]]
        kappa = mesh.kappa[e]

        def u_h(x):
            lam = (x - pts[0]) @ g.T
            lam[:, 0] += 1.0
            return lam @ uloc

        for n in range(dim + 1):
            ext = extension(pts, kappa, n)
            assert not ext.plain
            load = stiff = mass = 0.0
            for sub, vals in zip(ext.subsimplices, ext.subvalues):
                gs = one_simplex(sub).grads[0]

                def theta(x):
                    lam = (x - sub[0]) @ gs.T
                    lam[:, 0] += 1.0
                    return lam @ vals

                load += integrate(lambda x: f(x) * theta(x), sub, 4)
                mass += kappa ** 2 * integrate(lambda x: u_h(x) * theta(x), sub, 4)
                stiff += one_simplex(sub).volumes[0] * sol.grad[e] @ (gs.T @ vals)
            ref = load - stiff - mass
            scale = abs(load) + abs(stiff) + abs(mass)
            hat_stiff = one_simplex(pts).volumes[0] * sol.grad[e] @ g[n]
            assert abs(got[row, n] - hat_stiff - ref) <= 1e-10 * scale


@pytest.mark.parametrize("dim,seed", [(2, 28), (3, 29), (4, 24)])
def test_extension_volume_terms_match_subsimplex_route(dim, seed, monkeypatch):
    # against the sub-simplex-by-sub-simplex route, with the selection inside
    # one block and in blocks of 3 elements, len(sel) not a multiple of 3: a
    # non-polynomial f to 1e-13 of the f and kappa^2 parts in absolute value
    # (the signed parts may cancel), and a constant f bit for bit, as the sums
    # run in the same order
    mesh = random_small_mesh(np.random.default_rng(seed), dim=dim, allow_zero_kappa=False)
    sel = np.flatnonzero(mesh.layer)
    assert 3 < len(sel) < mesh.n_elements and len(sel) % 3

    def f(x):
        return np.exp(x[:, 0] - x[:, -1]) * np.cos(3.0 * x[:, 1])

    sol = fem.solve_problem(mesh, fem.ProblemData(f=f))
    want = extension_volume_terms_subsimplex(mesh, sol, sel)
    size = dataclasses.replace(sol, u=-np.abs(sol.u),
                               data=fem.ProblemData(f=lambda x: np.abs(f(x))))
    scale = extension_volume_terms_subsimplex(mesh, size, sel)
    const = dataclasses.replace(sol, data=fem.ProblemData(f=lambda x: np.full(len(x), 7.0)))
    nodes = dim * (dim + 1) * eq.rule_for(dim, eq.EXTENSION_DEGREE).n_points
    assert len(sel) * nodes <= fem.DATA_CHUNK
    for chunk in (fem.DATA_CHUNK, 3 * nodes):
        monkeypatch.setattr(fem, "DATA_CHUNK", chunk)
        got = eq._extension_volume_terms(mesh, sol, sel)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(eq._extension_volume_terms(mesh, const, sel),
                              extension_volume_terms_subsimplex(mesh, const, sel))


# ---------------------------------------------------------------------------
# residual functionals
# ---------------------------------------------------------------------------

def test_zero_data_zero_residuals(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.zeros(len(x)))
    sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), data)
    resid = eq.residual_functionals(mesh, sol)
    assert np.abs(resid.D).max() == 0.0


def test_single_all_neumann_element_epsilon(unit_triangle):
    # kappa = 1, f = 1: u_h = 1 is the Galerkin solution; with no free
    # coefficients the residuals must vanish identically
    mesh = one_element_mesh(unit_triangle, 1.0)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    assert fluxes.eps_max_rel < 1e-12
    assert np.abs(fluxes.gplus).max() < 1e-12  # g_K = projection of g_N = 0


def test_partition_of_unity_identity():
    # sum_n eps_K(theta_n) = int_K (f - kappa^2 u_h) + int_dK g_K, checked by
    # direct quadrature on the 3D benchmark at M = 2
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=2, kappa1=1.0, kappa2=2.0)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    resid = eq.residual_functionals(mesh, sol)
    fluxes = eq.equilibrate(mesh, sol)
    eps = eq.equilibration_residuals(mesh, resid, fluxes.alphas)

    for e in (0, 7, mesh.n_elements - 1):
        pts = mesh.points[mesh.simplices[e]]
        uloc = sol.u[mesh.simplices[e]]
        g = mesh.bary_grads[e]

        def integrand(x):
            lam = (x - pts[0]) @ g.T
            lam[:, 0] += 1.0
            return data.f(x) - mesh.kappa[e] ** 2 * (lam @ uloc)

        vol_term = integrate(integrand, pts, 4)
        bdry = 0.0
        for i in range(4):
            fid = mesh.elem_facets[e, i]
            gvals = mesh.elem_sigma[e, i] * fluxes.gplus[mesh.elem_facets[e, i]]
            fpts = mesh.points[mesh.facets[fid]]
            bdry += gvals.mean() * mesh.facet_measures[fid]  # affine: mean * area
        lhs = eps[e].sum()
        scale = np.abs(resid.scale[e]).max()
        assert lhs == pytest.approx(vol_term + bdry, abs=1e-10 * max(scale, 1.0))


# ---------------------------------------------------------------------------
# patch solves
# ---------------------------------------------------------------------------

def test_zero_residuals_give_zero_alpha(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.zeros(len(x)))
    sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), data)
    resid = eq.residual_functionals(mesh, sol)
    for v in range(mesh.n_points):
        _, alpha, _ = eq.solve_vertex_patch(mesh, v, resid)
        assert np.abs(alpha).max(initial=0.0) == 0.0


def test_patch_against_dense_kkt_oracle(rng):
    # 2D patch of 4 triangles around an interior vertex, kappa = 0 (all
    # constraints), manufactured u_h: compare with the dense KKT route
    mesh = geo.build_cube_mesh(2, 2, 0.0)
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1], data_degree=4)
    sol = fem.solve_problem(mesh, data)
    resid = eq.residual_functionals(mesh, sol)
    centre = int(np.flatnonzero(np.abs(mesh.points).max(axis=1) < 1e-12)[0])
    els, locs = vertex_patch(mesh, centre)
    fids, _ = vertex_facets(mesh, centre)
    unknown = fids[mesh.facet_tag[fids] != geo.NEUMANN]
    C = np.zeros((len(els), len(unknown)))
    for r, (e, n) in enumerate(zip(els, locs)):
        for i in range(3):
            if i == n:
                continue
            fid = mesh.elem_facets[e, i]
            if mesh.facet_tag[fid] == geo.NEUMANN:
                continue
            C[r, np.searchsorted(unknown, fid)] = mesh.elem_sigma[e, i]
    c = -resid.D[els, locs]
    oracle = kkt_min_norm_oracle(C, c, np.zeros((0, len(unknown))), np.zeros(0))
    _, alpha, info = eq.solve_vertex_patch(mesh, centre, resid)
    scale = max(np.abs(c).max(), 1.0)
    assert np.abs(alpha - oracle).max() < 1e-9 * scale
    assert info[3] <= 1e-10 * scale  # constraint residual


def test_patch_with_objective_against_oracle(rng):
    # mixed patch: some elements constrained, some in the least-squares term
    mesh = _kappa_jump_mesh()
    data = fem.ProblemData(f=lambda x: np.full(len(x), 0.25), data_degree=2)
    sol = fem.solve_problem(mesh, data)
    resid = eq.residual_functionals(mesh, sol)
    assert mesh.layer.any() and (~mesh.layer).any()
    checked = 0
    for v in range(mesh.n_points):
        els, locs = vertex_patch(mesh, v)
        fids, _ = vertex_facets(mesh, v)
        unknown = fids[mesh.facet_tag[fids] != geo.NEUMANN]
        if len(unknown) == 0:
            continue
        rows = np.zeros((len(els), len(unknown)))
        for r, (e, n) in enumerate(zip(els, locs)):
            for i in range(3):
                if i == n:
                    continue
                fid = mesh.elem_facets[e, i]
                if mesh.facet_tag[fid] == geo.NEUMANN:
                    continue
                rows[r, np.searchsorted(unknown, fid)] = mesh.elem_sigma[e, i]
        cons = ~mesh.layer[els]
        oracle = kkt_min_norm_oracle(rows[cons], -resid.D[els[cons], locs[cons]],
                                     rows[~cons], -resid.D[els[~cons], locs[~cons]])
        _, alpha, _ = eq.solve_vertex_patch(mesh, v, resid)
        scale = max(np.abs(resid.D[els, locs]).max(), 1.0)
        assert np.abs(alpha - oracle).max() < 1e-9 * scale
        checked += 1
    assert checked >= 4


def _cycle(length: int) -> np.ndarray:
    """Rows +e_r - e_(r+1 mod length): the elements around a closed 2D patch."""
    return np.eye(length) - np.roll(np.eye(length), 1, axis=1)


def _signed_stack(rng, rows: np.ndarray, nc: int, n: int = 12) -> np.ndarray:
    """n copies of the +-1/0 rows with random facet orientations and order;
    the constrained rows (the first nc) and the objective rows each shuffled."""
    k, nu = rows.shape
    out = np.empty((n, k, nu))
    for p in range(n):
        order = np.concatenate([rng.permutation(nc), nc + rng.permutation(k - nc)])
        out[p] = (rows[order] * rng.choice([-1.0, 1.0], nu))[:, rng.permutation(nu)]
    return out


def _patch_map_cases(rng):
    yield "nc = 0", rng.integers(-1, 2, (12, 5, 4)).astype(float), 0
    yield "nc = k", rng.integers(-1, 2, (12, 4, 6)).astype(float), 4
    full = rng.integers(-1, 2, (40, 5, 6)).astype(float)
    full = full[np.linalg.matrix_rank(full[:, :3]) == 3][:12]
    yield "mixed, C of full rank", full, 3
    # a closed cycle of constrained elements has rank 4 on its 4 facets; the
    # objective row also reaches a fifth facet
    cycle = np.zeros((5, 5))
    cycle[:4, :4] = _cycle(4)
    cycle[4, [0, 4]] = 1.0, -1.0
    yield "mixed, C rank-deficient", _signed_stack(rng, cycle, 4), 4
    # the objective row is minus the sum of the constrained ones, so it lies
    # in their row space and E N is round-off that the floor must discard
    yield "objective in the constraint row space", _signed_stack(rng, _cycle(5), 4), 4


def test_patch_maps_match_the_nullspace_basis_route(rng):
    for label, M, nc in _patch_map_cases(rng):
        assert np.isin(M, (-1.0, 0.0, 1.0)).all(), label
        L, P = eq._patch_maps(M, nc)
        L_ref, P_ref = patch_maps_nullspace(M, nc)
        scale = np.abs(L_ref).max()
        assert L.shape == L_ref.shape and P.shape == P_ref.shape, label
        assert np.abs(L - L_ref).max() <= 1e-13 * scale, label
        assert np.abs(P - P_ref).max(initial=0.0) <= 1e-13 * scale, label


@pytest.mark.parametrize("dim,m", [(2, 4), (3, 2), (4, 2)])
def test_sign_matrices_match_dense_comparison(monkeypatch, dim, m):
    # the scattered +-1 patterns byte for byte against comparing every element
    # facet with every unknown, on the batches the patch solves build: Neumann
    # facets, mixed patches across the kappa jump, and a point that no element
    # uses (k = 0), which the grouping by shape must skip
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)   # the jump is the test case
        base = geo.build_cube_mesh(m, dim, lambda c: np.where(c[:, 0] < 0, 0.5, 4000.0))
        mesh = geo.build_mesh(np.vstack([base.points, np.full(dim, 3.0)]), base.simplices,
                              base.kappa, lambda c: np.abs(np.abs(c[:, 0]) - 1.0) < 1e-12)
    assert len(mesh.neumann) and mesh.layer.any() and (~mesh.layer).any()
    data = fem.ProblemData(f=lambda x: np.full(len(x), 0.25), data_degree=2)
    sol = fem.solve_problem(base, data)
    resid = eq.residual_functionals(mesh, fem.FemSolution.from_vertex_values(
        mesh, np.append(sol.u, 0.0), data))
    scatter, batches = eq._sign_matrices, []

    def checked(mesh, els, locs, column, nu):
        got, cols = scatter(mesh, els, locs, column, nu)
        unknown = []
        for v in mesh.simplices[els[:, 0], locs[:, 0]]:
            fids, _ = vertex_facets(mesh, v)
            unknown.append(fids[mesh.facet_tag[fids] != geo.NEUMANN])
        unknown = np.array(unknown)
        want = sign_matrices_dense(mesh, els, unknown)
        assert got.dtype == want.dtype == np.int8 and got.shape == (*want.shape[:2], 1 + nu)
        assert not got[..., 0].any()
        assert np.ascontiguousarray(got[..., 1:]).tobytes() == want.tobytes()
        # cols names the unknown of each element facet, 0 where it has none
        fac = mesh.elem_facets[els]
        named = np.take_along_axis(unknown, (cols - 1).reshape(len(els), -1), 1)
        assert np.array_equal(np.where(cols > 0, named.reshape(cols.shape), -1),
                              np.where((fac[..., None] == unknown[:, None, None]).any(3), fac, -1))
        batches.append(len(els))
        return got, cols

    monkeypatch.setattr(eq, "_sign_matrices", checked)
    alphas, info, _ = eq._solve_patches(mesh, resid, np.arange(mesh.n_points))
    assert len(batches) > 1 and max(batches) > 1
    assert sum(batches) == np.count_nonzero(info[:, 1])
    assert np.array_equal(info[-1], np.zeros(4))
    base_alphas, base_info, _ = eq._solve_patches(base, eq.residual_functionals(base, sol),
                                                  np.arange(base.n_points))
    assert np.array_equal(alphas, base_alphas) and np.array_equal(info[:-1], base_info)


def test_assembled_audit_with_cancelling_loads():
    # every patch solve meets its constraints to 3.5e-17; at local vertex 0 of
    # element 14 the hat loads cancel to a scale of 5.3e-17, so eps = -6.8e-18
    # is measured against the largest scale of its vertex patch, as the patch
    # solve was
    base = geo.build_cube_mesh(2, 3, 0.0)
    pts = base.points.copy()
    pts[13] += np.random.default_rng(3000).uniform(-0.18, 0.18, 3)   # the interior vertex
    tags = {tuple(int(v) for v in base.facets[fi]): "D"
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    mesh = geo.build_mesh(pts, base.simplices, 0.0, tags)
    sol = fem.solve_problem(mesh, fem.ProblemData(f=lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 2] ** 2))
    assert eq.equilibrate(mesh, sol).eps_max_rel <= eq.CONSTRAINT_TOL


def test_assembled_audit_catches_a_perturbed_coefficient(monkeypatch):
    # one free coefficient of a constrained patch off by 1e-6 of the patch's
    # scale breaks equilibration on its elements, and the audit must say so
    mesh = geo.build_cube_mesh(2, 3, 0.0)
    sol = fem.solve_problem(mesh, fem.ProblemData(f=lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 2] ** 2))
    assert eq.equilibrate(mesh, sol).eps_max_rel <= 1e-12
    resid = eq.residual_functionals(mesh, sol)
    v = 13                                  # the interior vertex
    els, locs = vertex_patch(mesh, v)
    assert not mesh.layer[els].any()
    fids, slots = vertex_facets(mesh, v)
    free = np.flatnonzero(mesh.facet_tag[fids] != geo.NEUMANN)
    fid, slot = fids[free[0]], slots[free[0]]
    step = 1e-6 * resid.scale[els, locs].max()
    solve = eq._solve_patches

    def perturbed(mesh, resid, vertices):
        alphas, info, scale = solve(mesh, resid, vertices)
        alphas[fid, slot] += step
        return alphas, info, scale

    monkeypatch.setattr(eq, "_solve_patches", perturbed)
    with pytest.raises(InfeasibleConstraints, match="assembled equilibration residual"):
        eq.equilibrate(mesh, sol)


def test_audit_assembles_the_constrained_rows_only(monkeypatch):
    # on a mixed mesh the audit assembles the rows of the kappa*rho <= 1
    # elements; they equal the rows of the whole-mesh assembly bit for bit,
    # and each is measured against the scale of its vertex patch
    mesh = _kappa_jump_mesh()
    sol = fem.solve_problem(mesh, fem.ProblemData(f=lambda x: np.cos(x[:, 0]) + x[:, 1]))
    rows = np.flatnonzero(~mesh.layer)
    assert 0 < len(rows) < mesh.n_elements
    assembled = []
    residuals = eq.equilibration_residuals
    monkeypatch.setattr(eq, "equilibration_residuals",
                        lambda *args: assembled.append(args[3:]) or residuals(*args))
    fluxes = eq.equilibrate(mesh, sol)
    assert len(assembled) == 1 and np.array_equal(assembled[0][0], rows)
    resid = eq.residual_functionals(mesh, sol)
    whole = residuals(mesh, resid, fluxes.alphas)
    assert np.array_equal(residuals(mesh, resid, fluxes.alphas, rows), whole[rows])
    worst = 0.0
    for v in range(mesh.n_points):
        els, locs = vertex_patch(mesh, v)
        own = ~mesh.layer[els]
        if own.any():
            worst = max(worst, np.abs(whole[els[own], locs[own]]).max()
                        / resid.scale[els, locs].max())
    assert fluxes.eps_max_rel == worst


def _compare_with_reference(mesh, data):
    """Batched patch solves against the per-vertex reference on every vertex."""
    sol = fem.solve_problem(mesh, data)
    resid = eq.residual_functionals(mesh, sol)
    got, info, _ = eq._solve_patches(mesh, resid, np.arange(mesh.n_points))
    ref = np.zeros_like(got)
    for v in range(mesh.n_points):
        unknown, a, (nc, nu, obj, res) = solve_vertex_patch_reference(mesh, v, resid)
        fids, slots = vertex_facets(mesh, v)
        free = mesh.facet_tag[fids] != geo.NEUMANN
        assert np.array_equal(fids[free], unknown)
        ref[fids[free], slots[free]] = a
        els, locs = vertex_patch(mesh, v)
        scale = resid.scale[els, locs].max()
        assert tuple(info[v, :2]) == (nc, nu)
        assert abs(info[v, 2] - obj) <= 1e-12 * scale ** 2   # a squared residual
        assert abs(info[v, 3] - res) <= 1e-12 * scale
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_batched_patch_solves_match_reference(monkeypatch):
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    factored = []   # patch systems factored, one entry per chunk
    maps = eq._patch_maps
    monkeypatch.setattr(eq, "_patch_maps", lambda M, nc: factored.append(len(M)) or maps(M, nc))
    cfg = RunConfig(dim=3, m=4, kappa1=1.0, kappa2=1e6)
    mesh, data = benchmark_mesh(cfg), benchmark_data(cfg)
    kapparho = mesh.kappa * mesh.inradii
    assert (kapparho <= 1).any() and (kapparho > 1).any()
    # the cube's patches repeat a few sign patterns, which are factored once
    _compare_with_reference(mesh, data)
    assert sum(factored) < mesh.n_points / 2
    # relabelling the vertices reorders elements and facets, so nearly every
    # patch has a sign matrix of its own
    factored.clear()
    perm = np.random.default_rng(3).permutation(mesh.n_points)
    _compare_with_reference(_rebuilt(mesh, perm=perm), data)
    assert sum(factored) > 0.9 * mesh.n_points

    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dim = (2, 3, 4)[seed % 3]
        mesh = random_small_mesh(rng, dim=dim, allow_zero_kappa=seed % 2 == 0)
        if seed % 5 == 4:
            mesh = _rebuilt(mesh, kappa=0.0)
        _compare_with_reference(mesh, random_problem_data(rng, dim))


def test_each_distinct_patch_system_is_factored_once_per_call(monkeypatch):
    # with chunks of one interior patch, every shape group spans several
    # chunks; still each distinct (nc, sign matrix) pair reaches _patch_maps
    # once, and the chunking changes no bit of the results
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=4, kappa1=1.0, kappa2=1e6)
    mesh = benchmark_mesh(cfg)
    resid = eq.residual_functionals(mesh, fem.solve_problem(mesh, benchmark_data(cfg)))
    want = eq._solve_patches(mesh, resid, np.arange(mesh.n_points))

    scatter, maps, systems, chunks = eq._sign_matrices, eq._patch_maps, set(), []

    def recorded(mesh, els, locs, column, nu):
        M, cols = scatter(mesh, els, locs, column, nu)
        nc = np.count_nonzero(~mesh.layer[els], axis=1)
        systems.update((c, m.shape, m.tobytes()) for c, m in zip(nc, M[..., 1:]))
        chunks.append((els.shape[1], nu, nc[0]))
        return M, cols

    factored = []
    monkeypatch.setattr(eq, "_sign_matrices", recorded)
    monkeypatch.setattr(eq, "_patch_maps", lambda M, nc: factored.append(len(M)) or maps(M, nc))
    monkeypatch.setattr(eq, "PATCH_CHUNK", 24 * 36)     # one interior patch
    got = eq._solve_patches(mesh, resid, np.arange(mesh.n_points))
    assert len(chunks) > len(set(chunks))
    # least-squares (0), mixed (1) and constrained (2) patches
    assert {int(nc > 0) + int(nc == shape[0]) for nc, shape, _ in systems} == {0, 1, 2}
    assert sum(factored) == len(systems)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_equilibrate_stages_stay_below_the_element_stages():
    # the blocks of the extension terms and the chunks of the patch solves are
    # bounded so that, on the d=3 M=16 benchmark cube, neither stage sets the
    # traced peak of a pass: both stay below the layer indicator's
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=16, kappa1=100.0, kappa2=1e6)
    mesh, data = benchmark_mesh(cfg), benchmark_data(cfg)

    def run():
        est.estimate(mesh, fem.solve_problem(mesh, data), data, "both")

    run()   # the quadrature caches
    peaks = stage_memory.stage_peaks(run)
    for stage in ("equilibration._extension_volume_terms", "equilibration._solve_patches"):
        assert peaks[stage] < peaks["reconstruction.eta2_terms"], (stage, peaks)


# ---------------------------------------------------------------------------
# full equilibration
# ---------------------------------------------------------------------------

def test_exact_constant_solution_fluxes(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    interior = mesh.facet_tag == geo.INTERIOR
    assert np.abs(fluxes.gplus[interior]).max() < 1e-12
    assert fluxes.eps_max_rel < 1e-12


def test_consistency_between_sides():
    # reconstruct g from each side independently via the shared coefficients
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=2, kappa1=2.0, kappa2=50.0)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    for fi in np.flatnonzero(mesh.facet_elems[:, 1] >= 0):
        fverts = mesh.points[mesh.facets[fi]]
        psi = dual_basis(fverts)
        g_sides = []
        for side in (0, 1):
            e, loc = mesh.facet_elems[fi, side], mesh.facet_local[fi, side]
            n = mesh.bary_grads[e, loc]
            n = -n / np.linalg.norm(n)
            own_avg = mesh.elem_sigma[e, loc] * fluxes.avg[fi]
            g_sides.append(own_avg + mesh.elem_sigma[e, loc] * psi.T @ fluxes.alphas[fi])
        assert np.abs(g_sides[0] + g_sides[1]).max() < 1e-11 * max(
            1.0, np.abs(g_sides[0]).max())
        assert np.allclose(g_sides[0], fluxes.gplus[fi], atol=1e-11 * max(
            1.0, np.abs(g_sides[0]).max()))


def test_neumann_facets_copy_projection():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    tags = {(0, 2): "D", (0, 1): "N", (1, 3): "N", (2, 3): "N"}
    mesh = geo.build_mesh(pts, cells, 1.0, tags)

    def g_n(x):
        return x[:, 0] ** 2 + x[:, 1]

    data = fem.ProblemData(f=lambda x: np.ones(len(x)), g_N=g_n)
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    for fi in np.flatnonzero(mesh.facet_tag == geo.NEUMANN):
        proj = project_facet(g_n, mesh.points[mesh.facets[fi]])
        assert np.abs(fluxes.gplus[fi] - proj).max() < 1e-12 * max(1.0, np.abs(proj).max())


def test_benchmark_equilibration_audit():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=4, kappa1=1.0, kappa2=1.0)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    assert (mesh.kappa * mesh.inradii <= 1.0).all()
    fluxes = eq.equilibrate(mesh, sol)
    assert fluxes.eps_max_rel <= 1e-9


def test_equilibrate_deterministic_under_permutation(rng):
    base = geo.build_cube_mesh(2, 2, lambda c: np.where(c[:, 0] < 0, 0.5, 30.0))
    tags = {tuple(int(v) for v in base.facets[fi]):
            ("D" if base.facet_tag[fi] == geo.DIRICHLET else "N")
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    perm = rng.permutation(base.n_elements)
    other = geo.build_mesh(base.points, base.simplices[perm], base.kappa[perm], tags)
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 1], data_degree=4)
    g1 = eq.equilibrate(base, fem.solve_problem(base, data))
    g2 = eq.equilibrate(other, fem.solve_problem(other, data))
    assert np.abs(g1.gplus - g2.gplus).max() <= 1e-12 * max(1.0, np.abs(g1.gplus).max())


def test_infeasible_constraints_raised(unit_triangle):
    # a non-Galerkin u_h on a single all-Neumann element leaves a residual that
    # no coefficient can absorb
    mesh = one_element_mesh(unit_triangle, 1.0)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    fake = fem.FemSolution.from_vertex_values(mesh, np.array([5.0, -3.0, 2.0]), data)
    with pytest.raises(InfeasibleConstraints, match=r"vertex \d+"):
        eq.equilibrate(mesh, fake)


def test_infeasible_patch_error_names_an_infeasible_vertex():
    # kappa = 0 and all-Neumann: a non-Galerkin u_h breaks the patch
    # compatibility conditions; the vertex the error names is infeasible for
    # the per-vertex reference too, with the same message
    base = geo.build_cube_mesh(2, 2, 0.0)
    mesh = geo.build_mesh(base.points, base.simplices, 0.0,
                          lambda c: np.zeros(len(c), dtype=bool))
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    fake = fem.FemSolution.from_vertex_values(
        mesh, np.random.default_rng(5).standard_normal(mesh.n_points), data)
    with pytest.raises(InfeasibleConstraints, match=r"vertex \d+") as err:
        eq.equilibrate(mesh, fake)
    v = int(re.search(r"vertex (\d+)", str(err.value)).group(1))
    resid = eq.residual_functionals(mesh, fake)
    with pytest.raises(InfeasibleConstraints) as ref_err:
        solve_vertex_patch_reference(mesh, v, resid)
    assert str(err.value) == str(ref_err.value)


def test_objective_rows_without_free_coefficients_do_not_raise(unit_triangle):
    # kappa*rho > 1 on a single all-Neumann element: no coefficient is free and
    # the only rows are objective rows, so there is no constraint to violate
    mesh = one_element_mesh(unit_triangle, 10.0)
    assert mesh.kappa[0] * mesh.inradii[0] > 1.0
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    fake = fem.FemSolution.from_vertex_values(mesh, np.array([5.0, -3.0, 2.0]), data)
    assert eq.equilibrate(mesh, fake).eps_max_rel == 0.0
    resid = eq.residual_functionals(mesh, fake)
    assert np.abs(resid.D).max() > 0.0
    for v in range(mesh.n_points):
        assert eq.solve_vertex_patch(mesh, v, resid)[2] == (0, 0, 0.0, 0.0)


def test_patch_report_csv(tmp_path, two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    path = tmp_path / "patches.csv"
    eq.equilibrate(mesh, sol, patch_report_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("vertex,")
    assert len(lines) == 1 + mesh.n_points

    # mixed patches: one row per vertex, in vertex order, counting the
    # kappa*rho <= 1 patch elements and the non-Neumann facets of the vertex
    mesh = _kappa_jump_mesh()
    data = fem.ProblemData(f=lambda x: np.full(len(x), 0.25), data_degree=2)
    eq.equilibrate(mesh, fem.solve_problem(mesh, data), patch_report_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex,n_constraints,n_unknowns,objective,constraint_residual"
    number = r"-?\d\.\d{6}e[+-]\d\d"
    assert all(re.fullmatch(rf"\d+,\d+,\d+,{number},{number}", line) for line in lines[1:])
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.array_equal(rows[:, 0], np.arange(mesh.n_points))
    kapparho = mesh.kappa * mesh.inradii
    n_cons = [np.sum(kapparho[vertex_patch(mesh, v)[0]] <= 1.0) for v in range(mesh.n_points)]
    n_free = [np.sum(mesh.facet_tag[vertex_facets(mesh, v)[0]] != geo.NEUMANN)
              for v in range(mesh.n_points)]
    assert np.array_equal(rows[:, 1], n_cons)
    assert np.array_equal(rows[:, 2], n_free)
    assert 0 < rows[:, 1].sum() < sum(len(vertex_patch(mesh, v)[0]) for v in range(mesh.n_points))
