import math
import warnings

import numpy as np
import pytest

import fluxbound.equilibration as eq
import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
import fluxbound.reconstruction as rec
from fluxbound.errors import DivergenceAuditFailed, InvalidVariant, KappaJumpWarning
from fluxbound.quadrature import integrate_simplices, rule_for

import oracles
from conftest import ZERO_DATA, fd_divergence, one_simplex, random_simplex
from test_fem import one_element_mesh


def benchmark_setup(dim, m, k1, k2):
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=dim, m=m, kappa1=k1, kappa2=k2)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, 4)[0])
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    return mesh, data, sol, fluxes, R, r_vals


# ---------------------------------------------------------------------------
# facet residuals
# ---------------------------------------------------------------------------

def test_residual_zero_for_exact_constant(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    assert np.abs(R).max() < 1e-12


def test_residual_constant_field(unit_triangle):
    # g_K set manually to the normal component of a constant field C
    mesh = one_element_mesh(unit_triangle, 1.0)
    C = np.array([0.7, -0.3])
    normals = mesh.outward_normals()[0]
    gplus = np.empty((mesh.n_facets, 2))
    for i in range(3):
        fid = mesh.elem_facets[0, i]
        gplus[fid] = C @ normals[i]
    fluxes = eq.BoundaryFluxSet(gplus=gplus, alphas=np.zeros_like(gplus),
                                avg=np.zeros(mesh.n_facets), eps_max_rel=0.0)
    sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), ZERO_DATA)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    for i in range(3):
        assert np.abs(R[0, i] - C @ normals[i]).max() < 1e-14  # constant per facet


def test_residual_reproduces_g():
    mesh, data, sol, fluxes, R, _ = benchmark_setup(3, 2, 1.0, 5.0)
    normals = mesh.outward_normals()
    for e in range(0, mesh.n_elements, 5):
        for i in range(4):
            g_back = R[e, i] + sol.grad[e] @ normals[e, i]
            g_stored = mesh.elem_sigma[e, i] * fluxes.gplus[mesh.elem_facets[e, i]]
            scale = max(1.0, np.abs(g_stored).max())
            assert np.abs(g_back - g_stored).max() < 1e-13 * scale


# ---------------------------------------------------------------------------
# variant 1
# ---------------------------------------------------------------------------

def test_variant1_zero_inputs(unit_triangle):
    flux = oracles.build_variant1(unit_triangle, np.zeros((3, 3)), np.zeros(3))
    x = np.array([[0.2, 0.3], [0.1, 0.1]])
    assert np.abs(flux(x)).max() == 0.0
    assert np.abs(flux.divergence(x)).max() == 0.0


def test_variant1_normal_trace_matches_g():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 4, 1.0, 1.0)
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    variant = np.ones(mesh.n_elements, dtype=np.int8)
    [trace] = rec.facet_trace_values(mesh, sol.grad, v1, R, variant[None])
    g_exact = oracles.equilibrated_trace(mesh, R, sol.grad)
    scale = np.maximum(1.0, np.abs(g_exact).max(axis=2))
    assert (np.abs(trace - g_exact) / scale[:, :, None]).max() < 1e-11


def test_tau_q_zero_normal_trace(rng):
    # tau_Q alone: zero residuals, nonzero affine r
    for d in (2, 3, 4):
        pts = random_simplex(d, rng)
        r_vals = rng.standard_normal(d + 1)
        flux = oracles.build_variant1(pts, np.zeros((d + 1, d + 1)), r_vals)
        g = one_simplex(pts).grads[0]
        for i in range(d + 1):
            fpts = np.delete(pts, i, axis=0)
            n = -g[i] / np.linalg.norm(g[i])
            w = rng.dirichlet(np.ones(d), size=20)
            x = w @ fpts
            tq = flux(x)  # grad_uh = 0 and tau_L = 0 here
            scale = max(1.0, np.abs(tq).max())
            assert np.abs(tq @ n).max() < 1e-12 * scale


def test_variant1_divergence_identity_symbolic(rng):
    # sum_{n<m} (lam_m - lam_n)(x_n - x_m) = -(d+1)(x - centroid)
    for d in (2, 3, 4, 5):
        pts = random_simplex(d, rng)
        g = one_simplex(pts).grads[0]
        x = rng.dirichlet(np.ones(d + 1), size=30) @ pts
        lam = (x - pts[0]) @ g.T
        lam[:, 0] += 1.0
        total = np.zeros_like(x)
        for n in range(d + 1):
            for m in range(n + 1, d + 1):
                total += (lam[:, m] - lam[:, n])[:, None] * (pts[n] - pts[m])
        expected = -(d + 1) * (x - pts.mean(axis=0))
        assert np.abs(total - expected).max() < 1e-10


def test_variant1_divergence_vs_fd(rng):
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(2, 2, 1.0, 3.0)
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    for e in (0, 3, 5):
        pts = mesh.points[mesh.simplices[e]]
        Rv = eq._to_local_vertices(R)[e]
        flux = oracles.build_variant1(pts, Rv, r_vals[e])
        h = mesh.diameters[e]
        x = rng.dirichlet(np.full(3, 3.0), size=20) @ pts
        div_fd = fd_divergence(flux, x, 1e-6 * h)
        div_an = flux.divergence(x)
        scale = max(1.0, np.abs(div_an).max())
        assert np.abs(div_fd - div_an).max() < 1e-6 * scale
        # and the quadratic part alone: div tau_Q = (centroid - x) . grad_r
        quad = oracles.build_variant1(pts, np.zeros((3, 3)), r_vals[e])
        expected = (quad.centroid - x) @ quad.grad_r
        assert np.abs(fd_divergence(quad, x, 1e-6 * h) - expected).max() < 1e-9 * scale


def test_variant1_bulk_matches_single_element():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 2, 1.0, 4.0)
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    Rv_all = eq._to_local_vertices(R)
    for e in (0, 10, 20):
        flux = oracles.build_variant1(mesh.points[mesh.simplices[e]], Rv_all[e], r_vals[e])
        assert np.allclose(flux.c, v1.c[e], atol=1e-12 * max(1, np.abs(v1.c[e]).max()))
        assert flux.div_l == pytest.approx(v1.div_l[e], rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# variant 2
# ---------------------------------------------------------------------------

def test_facet_setup_closed_form_matches_solve():
    # the closed form (a the tangential part of sum_j R_j grad lambda_j) against
    # the per-element solve, on simplices squashed down to rho/h < 1e-3 and with
    # residuals of size 1e-3 .. 1e6; a.x + b is compared at the facet vertices
    # and at the incentre, which lies off the facet plane
    rng = np.random.default_rng(31)
    n = 40
    for d in range(2, 6):
        pts = np.stack([random_simplex(d, rng) for _ in range(n)])
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        squash = 1.0 - 10.0 ** rng.uniform(-2.5, 0.0, n)
        pts -= squash[:, None, None] * np.einsum("kvd,kd->kv", pts, u)[:, :, None] * u[:, None]
        q = geo.simplex_geometry(pts)
        ratio = q.inradii / q.diameters
        assert ratio.min() < 1e-3
        R = rng.standard_normal((n, d + 1, d)) * 10.0 ** rng.uniform(-3.0, 6.0, (n, 1, 1))
        for i in range(d + 1):
            got = rec._facet_setup(pts, q.grads, R[:, i], i)
            ref = oracles.facet_setup_reference(pts, q.grads, R[:, i], i)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[3], ref[3])
            x = np.concatenate([got[0], oracles.incentre(pts, q.facet_measures)[:, None]],
                               axis=1)
            vals = [np.einsum("kpd,kd->kp", x, a) + b[:, None] for _, a, b, _ in (got, ref)]
            tol = 1e-13 * np.abs(R[:, i]).max(axis=1) / ratio
            assert np.all(np.abs(vals[0] - vals[1]) <= tol[:, None]), (d, i)


def test_variant2_zero_residual(unit_triangle):
    flux = oracles.build_variant2(unit_triangle, np.zeros((3, 3)), 5.0)
    x = np.array([[0.25, 0.25], [0.1, 0.6]])
    assert np.abs(flux(x)).max() == 0.0


def test_variant2_requires_positive_kappa(unit_triangle):
    with pytest.raises(InvalidVariant):
        oracles.build_variant2(unit_triangle, np.zeros((3, 3)), 0.0)


def test_variant2_trace_and_support(rng):
    for d in (2, 3):
        pts = random_simplex(d, rng)
        q = one_simplex(pts)
        kappa = 3.0 / q.inradii[0]
        Rv = rng.standard_normal((d + 1, d + 1))
        flux = oracles.build_variant2(pts, Rv, kappa)
        g = q.grads[0]
        for i in range(d + 1):
            fpts = np.delete(pts, i, axis=0)
            n = -g[i] / np.linalg.norm(g[i])
            w = rng.dirichlet(np.ones(d), size=30)
            x = w @ fpts
            rv = np.delete(Rv[i], i)
            r_at = w @ rv  # affine residual at the sample points
            tr = flux(x) @ n
            scale = max(1.0, np.abs(rv).max())
            assert np.abs(tr - r_at).max() < 1e-11 * scale
        # vanishing beyond the cutoff: points high in the cone
        ed = g[0] / np.linalg.norm(g[0])
        base = np.delete(pts, 0, axis=0).mean(axis=0)
        deep = base[None, :] + np.linspace(1.05, 1.6, 5)[:, None] * (
            (flux.incentre - base) / (kappa * q.inradii[0]) * kappa * q.inradii[0])[None, :] \
            * (1.0 / (kappa * q.inradii[0]))
        xd = (deep - base) @ ed
        inside = xd >= 1.0 / kappa
        assert np.abs(flux(deep)[inside]).max(initial=0.0) == 0.0


def test_variant2_divergence_vs_fd(rng):
    for d in (2, 3):
        pts = random_simplex(d, rng)
        q = one_simplex(pts)
        kappa = 2.5 / q.inradii[0]
        Rv = rng.standard_normal((d + 1, d + 1))
        flux = oracles.build_variant2(pts, Rv, kappa)
        h = q.diameters[0]
        # sample strictly inside one cone, inside the active region
        fpts = np.delete(pts, 1, axis=0)
        w = rng.dirichlet(np.ones(d), size=60)
        base = w @ fpts
        x = base + rng.uniform(0.05, 0.9, 60)[:, None] * (
            1.0 / (kappa * q.inradii[0])) * (flux.incentre - base)
        keep = flux._locate(x) == 1
        x = x[keep]
        div_fd = fd_divergence(flux, x, 1e-6 * h)
        div_an = flux.divergence(x)
        scale = max(1.0, np.abs(div_an).max())
        assert np.abs(div_fd - div_an).max() < 1e-6 * scale


def volume(pts):
    """Volume of one non-degenerate simplex."""
    return one_simplex(pts).volumes[0]


def test_split_cone_frustum_partition(rng):
    # spec case: cut = rho/2 in 2D gives 3/4 of the cone area
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.8]])
    apex = np.array([0.45, 0.4])
    height = 0.4
    pieces, top = oracles.split_cone_frustum(tri[:2], apex, height / 2)
    cone_area = volume(np.vstack([tri[:2], apex]))
    got = sum(volume(p) for p in pieces)
    assert got == pytest.approx(0.75 * cone_area, rel=1e-12)
    assert volume(top) == pytest.approx(0.25 * cone_area, rel=1e-12)

    for d in (2, 3, 4, 5):
        pts = random_simplex(d, rng)
        q = one_simplex(pts)
        fpts = np.delete(pts, 0, axis=0)
        cut = 0.37 * q.inradii[0]
        inc = oracles.incentre(pts, q.facet_measures[0])
        pieces, top = oracles.split_cone_frustum(fpts, inc, cut)
        total = sum(volume(p) for p in pieces) + volume(top)
        cone = volume(np.vstack([fpts, inc]))
        assert total == pytest.approx(cone, rel=1e-12)
        # frustum volume by similarity: (1 - (1 - cut/rho)^d) of the cone
        frac = 1.0 - (1.0 - cut / q.inradii[0]) ** d
        got = sum(volume(p) for p in pieces)
        assert got == pytest.approx(frac * cone, rel=1e-11)


def test_split_limit_cut_to_height():
    tri = np.array([[0.0, 0.0], [1.0, 0.0]])
    apex = np.array([0.5, 1.0])
    cone = volume(np.vstack([tri, apex]))
    pieces, top = oracles.split_cone_frustum(tri, apex, 1.0 - 1e-9)
    got = sum(volume(p) for p in pieces)
    assert got == pytest.approx(cone, rel=1e-8)


# ---------------------------------------------------------------------------
# eta_K
# ---------------------------------------------------------------------------

def test_eta_zero_for_exact_solution(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, 4)[0])
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    first, resid_const = rec.eta1_terms(mesh, v1)
    assert np.sqrt(first).max() < 1e-11
    rec.divergence_audit(mesh, resid_const, pf, sol.u[mesh.simplices])


def test_benchmark_divergence_audit_and_degree_stability():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 4, 1.0, 1.0)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, 4)[0])
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    first, resid_const = rec.eta1_terms(mesh, v1)
    worst = rec.divergence_audit(mesh, resid_const, pf, sol.u[mesh.simplices])
    assert worst <= 1e-9
    # the closed form against degree-8 quadrature of the field
    first_hi, _ = oracles.eta1_terms_quadrature(mesh, v1, 8)
    denom = np.maximum(first.max(), 1e-300)
    assert np.abs(first - first_hi).max() / denom < 1e-10


def test_eta2_degree_stability():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 2, 2.0, 60.0)
    sel = np.flatnonzero(mesh.kappa > 0)
    f1, s1 = rec.eta2_terms(mesh, R, r_vals, sel)
    f2, s2 = oracles.eta2_terms_staircase(mesh, R, r_vals, sel,
                                          degree=oracles.ETA2_DEGREE + 4,
                                          top_degree=oracles.TOP_DEGREE + 4)
    scale = max(f1.max(), s1.max(), 1e-300)
    assert np.abs(f1 - f2).max() / scale < 1e-10
    assert np.abs(s1 - s2).max() / scale < 1e-10


def test_eta2_bulk_matches_single_element_quadrature():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(2, 2, 2.0, 40.0)
    sel = np.arange(mesh.n_elements)
    f2, s2 = rec.eta2_terms(mesh, R, r_vals, sel)
    Rv_all = eq._to_local_vertices(R)
    for e in (0, 3, 6):
        pts = mesh.points[mesh.simplices[e]]
        flux = oracles.build_variant2(pts, Rv_all[e], mesh.kappa[e], grad_uh=sol.grad[e])
        eta = oracles.eta_K(flux, mesh.kappa[e], r_vals[e])
        bulk = math.sqrt(f2[e] + s2[e] / mesh.kappa[e] ** 2)
        assert eta == pytest.approx(bulk, rel=1e-9)


def test_eta2_rejects_zero_kappa_and_is_rowwise(rng):
    # kappa = 0 on x_1 < 0; kappa*rho < 1 and > 1 on the other elements
    kappa_fn = lambda c: np.where(c[:, 0] < 0, 0.0, np.where(c[:, 1] < 0, 2.0, 60.0))
    mesh = geo.build_cube_mesh(2, 3, kappa_fn)
    data = fem.ProblemData(f=lambda x: np.cos(x[:, 0]) + x[:, 1] * x[:, 2])
    sol = fem.solve_problem(mesh, data)
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, 4)[0])
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    pos = np.flatnonzero(mesh.kappa > 0)
    kapparho = mesh.kappa[pos] * mesh.inradii[pos]
    assert np.any(kapparho < 1.0) and np.any(kapparho > 1.0)
    zero = np.flatnonzero(mesh.kappa == 0)
    # the check comes before 1/(kappa rho) is formed, so no division by zero is seen
    with np.errstate(divide="raise", invalid="raise"), pytest.raises(InvalidVariant):
        rec.eta2_terms(mesh, R, r_vals, np.concatenate([pos[:3], zero[:1], pos[3:]]))

    full = rec.eta2_terms(mesh, R, r_vals, pos)
    sub = rng.permutation(len(pos))[:len(pos) - 5]
    for got, want in zip(rec.eta2_terms(mesh, R, r_vals, pos[sub]), full):
        np.testing.assert_allclose(got, want[sub], rtol=1e-15, atol=0.0)


def test_eta2_roundoff_against_longdouble():
    # the float64 routes against the same cone integrand evaluated in
    # np.longdouble; the cancellation in r + div tau_O sits in ``second``
    for dim, m, k1 in ((2, 8, 3.0), (3, 4, 1.0), (4, 2, 3.0)):
        mesh, data, sol, fluxes, R, r_vals = benchmark_setup(dim, m, k1, 1e6)
        sel = np.flatnonzero(mesh.kappa > 0)
        kapparho = mesh.kappa[sel] * mesh.inradii[sel]
        assert np.any(kapparho < 1.0) and np.any(kapparho > 1.0)
        ref = oracles.eta2_terms_longdouble(mesh, R, r_vals, sel)
        cone = rec.eta2_terms(mesh, R, r_vals, sel)
        stair = oracles.eta2_terms_staircase(mesh, R, r_vals, sel)
        for c, st, lref in zip(cone, stair, ref):
            scale = float(np.abs(lref).max())
            err_cone = float(np.abs(c - lref).max()) / scale
            err_stair = float(np.abs(st - lref).max()) / scale
            assert err_stair < 1e-10
            assert err_cone <= err_stair


@pytest.mark.parametrize("dim,m", [(2, 4), (3, 2), (4, 1), (5, 1)])
def test_eta2_closed_form_extremes(dim, m):
    # kappa*rho just above 1 (cutoff at the apex), moderate, and far beyond
    # (the cutoff 1e-8 rho from the facet): both terms against the cone
    # integrand in extended precision, and the part below the cutoff against
    # a quadrature of r^2 over the shrunken simplex apex + t0 (K - apex)
    rho = geo.build_cube_mesh(m, dim, 1.0).inradii
    assert np.ptp(rho) == 0.0   # Kuhn simplices are congruent
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 0] - 0.5 * x[:, -1] ** 2)
    for kapparho in (1.0 + 1e-9, 1.5, 1e3, 1e8):
        mesh = geo.build_cube_mesh(m, dim, kapparho / rho[0])
        sol = fem.solve_problem(mesh, data)
        R = rec.facet_residuals(mesh, eq.equilibrate(mesh, sol), sol.grad)
        pf = fem.project_element_bulk(mesh, sol.f_loads)
        r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
        sel = np.arange(mesh.n_elements)
        ref = oracles.eta2_terms_longdouble(mesh, R, r_vals, sel)
        for got, lref in zip(rec.eta2_terms(mesh, R, r_vals, sel), ref):
            scale = float(np.abs(lref).max())
            assert float(np.abs(got - lref).max()) <= 1e-13 * scale, (dim, kapparho)

        t0 = 1.0 - np.minimum(1.0, 1.0 / (mesh.kappa * mesh.inradii))
        pts = mesh.points[mesh.simplices]
        apex, cent, g = oracles.mesh_incentres(mesh, sel), pts.mean(axis=1), mesh.bary_grads

        def r_of(x):   # r through the barycentric coordinates of K
            lam = 1.0 / (dim + 1) + np.einsum("end,ed->en", g, x - cent)
            return np.einsum("en,en->e", lam, r_vals)

        shrunk = apex[:, None] + t0[:, None, None] * (pts - apex[:, None])
        quad = integrate_simplices(lambda x, lam: r_of(x) ** 2, shrunk,
                                   geo.simplex_measure(shrunk), 2)
        closed = rec._below_cutoff_sq(r_vals, r_of(apex), t0, mesh.volumes, dim)
        np.testing.assert_allclose(closed, quad, rtol=1e-13, atol=0.0)


def _squashed_simplices(d, n, rng):
    """n disjoint random simplices squashed towards a hyperplane, rho/h down to below 1e-3,
    as a mesh of their own, and their inradius-to-diameter ratios."""
    pts = np.stack([random_simplex(d, rng) for _ in range(n)])
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    squash = 1.0 - 10.0 ** rng.uniform(-3.5, 0.0, n)
    pts -= squash[:, None, None] * np.einsum("kvd,kd->kv", pts, u)[:, :, None] * u[:, None]
    q = geo.simplex_geometry(pts)
    kappa = 10.0 ** rng.uniform(-1.0, 8.0, n) / q.inradii     # kappa rho from 0.1 to 1e8
    mesh = geo.build_mesh(pts.reshape(-1, d), np.arange(n * (d + 1)).reshape(n, d + 1), kappa,
                          lambda c: np.ones(len(c), dtype=bool))
    return mesh, q.inradii / q.diameters


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_eta2_flux_moments_match_facet_rule(dim):
    # the flux term in exact facet moments against the degree-4 facet rule,
    # on near-degenerate simplices and residuals of size 1e-3 .. 1e6
    rng = np.random.default_rng(60 + dim)
    mesh, ratio = _squashed_simplices(dim, 40, rng)
    assert ratio.min() < 1e-3
    R = rng.standard_normal((mesh.n_elements, dim + 1, dim)) \
        * 10.0 ** rng.uniform(-3.0, 6.0, (mesh.n_elements, 1, 1))
    r_vals = rng.standard_normal((mesh.n_elements, dim + 1))
    sel = rng.permutation(mesh.n_elements)
    first = rec.eta2_terms(mesh, R, r_vals, sel)[0]
    ref = oracles.eta2_flux_facet_rule(mesh, R, r_vals, sel)
    assert np.all(ref > 0.0)
    np.testing.assert_allclose(first, ref, rtol=1e-13, atol=0.0)


def test_layer_terms_call_no_quadrature(monkeypatch):
    # the layer indicator and the collapsed-extension terms are closed forms
    # or evaluate their own node tables: no call to integrate_simplices
    import fluxbound.quadrature as quad
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 2, 2.0, 60.0)
    sel = np.flatnonzero(mesh.layer)
    assert len(sel)
    calls = []

    def spy(*args):
        calls.append(args)
        return integrate_simplices(*args)

    for module in (quad, est):
        monkeypatch.setattr(module, "integrate_simplices", spy)
    for module in (rec, eq, fem):
        assert not hasattr(module, "integrate_simplices"), module
    rec.eta2_terms(mesh, R, r_vals, sel)
    eq._extension_volume_terms(mesh, sol, sel)
    assert calls == []

    class Zero:
        def value(self, x):
            return np.zeros(len(x))

        def gradient(self, x):
            return np.zeros_like(x)

    est.true_error(mesh, sol, Zero())   # the spy sees a call through the modules that make one
    assert len(calls) == 1


def test_eta1_hand_case_single_element(unit_triangle):
    # kappa = 0, f = 1, all facets Neumann with facet-wise constants chosen so
    # that the equilibration conditions hold with u_h = 0; then eta_K equals
    # ||tau_L + tau_Q|| which we cross-check by degree-8 quadrature
    c_hyp = -1.0 / (6.0 * math.sqrt(2.0))
    c_leg = -1.0 / 6.0
    mesh = one_element_mesh(unit_triangle, 0.0, dirichlet=())
    # facet order: facets are canonical-sorted; map values by measure
    gplus = np.empty((3, 2))
    for fi in range(3):
        meas = mesh.facet_measures[fi]
        gplus[fi] = c_hyp if abs(meas - math.sqrt(2)) < 1e-12 else c_leg
    fluxes = eq.BoundaryFluxSet(gplus=gplus, alphas=np.zeros_like(gplus),
                                avg=np.zeros(3), eps_max_rel=0.0)
    sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), ZERO_DATA)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    r_vals = np.ones((1, 3))  # Pi_K f = 1, kappa = 0
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    first, resid_const = rec.eta1_terms(mesh, v1)
    # exact equilibration by construction: div tau_L = -1 = -Pi_K f
    assert resid_const[0] == pytest.approx(0.0, abs=1e-13)
    Rv = eq._to_local_vertices(R)[0]
    flux = oracles.build_variant1(unit_triangle, Rv, r_vals[0])
    oracle = oracles.integrate(lambda x: (flux(x) ** 2).sum(axis=1), unit_triangle, 8)
    assert first[0] == pytest.approx(oracle, rel=1e-10)


def _check_eta1_closed_form(mesh, R, r_vals, elements):
    """eta1_terms against degree-8 quadrature on every element, and against the
    single-element closure integrated by oracles.integrate on `elements`."""
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    first, _ = rec.eta1_terms(mesh, v1)
    quad, _ = oracles.eta1_terms_quadrature(mesh, v1, 8)
    assert np.all(first >= 0.0)
    assert np.all(np.abs(first - quad) <= 1e-12 * quad + 1e-14 * quad.max())
    Rv = eq._to_local_vertices(R)
    for e in elements:
        pts = mesh.points[mesh.simplices[e]]
        flux = oracles.build_variant1(pts, Rv[e], r_vals[e])
        single = oracles.integrate(lambda x: (flux(x) ** 2).sum(axis=1), pts, 8)
        assert abs(first[e] - single) <= 1e-11 * single + 1e-14 * quad.max()


@pytest.mark.parametrize("dim,m", [(2, 4), (3, 2), (4, 1), (5, 1)])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 1e4])
def test_eta1_closed_form_matches_quadrature(dim, m, kappa):
    # Kuhn meshes with every vertex moved by up to 0.08 h per coordinate (the
    # orientation of every element is kept), through the whole pipeline, from
    # kappa = 0 to far inside the layer regime
    rng = np.random.default_rng(1000 * dim + int(kappa))
    base = geo.build_cube_mesh(m, dim, kappa)
    pts = base.points + rng.uniform(-0.08, 0.08, base.points.shape) * (2.0 / m)
    edges = pts[base.simplices[:, 1:]] - pts[base.simplices[:, :1]]
    ref = base.points[base.simplices[:, 1:]] - base.points[base.simplices[:, :1]]
    assert np.all(np.sign(np.linalg.det(edges)) == np.sign(np.linalg.det(ref)))
    tags = {tuple(int(v) for v in base.facets[fi]): "D"
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    mesh = geo.build_mesh(pts, base.simplices, kappa, tags)
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 0] - 0.5 * x[:, -1] ** 2)
    sol = fem.solve_problem(mesh, data)
    R = rec.facet_residuals(mesh, eq.equilibrate(mesh, sol), sol.grad)
    pf = fem.project_element_bulk(mesh, sol.f_loads)
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    _check_eta1_closed_form(mesh, R, r_vals, rng.choice(mesh.n_elements, 3, replace=False))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_eta1_closed_form_near_degenerate_simplex(dim, rng):
    # the unit simplex flattened to rho/h ~ 1e-3, random facet residuals and r
    pts = np.vstack([np.zeros(dim), np.eye(dim)])
    pts[:, -1] *= 2e-3
    mesh = one_element_mesh(pts, 0.0, dirichlet=tuple(range(dim + 1)))
    assert 5e-4 < mesh.inradii[0] / mesh.diameters[0] < 2e-3
    R = rng.standard_normal((1, dim + 1, dim))
    r_vals = rng.standard_normal((1, dim + 1))
    _check_eta1_closed_form(mesh, R, r_vals, [0])


def test_divergence_audit_failure_raises(unit_triangle):
    mesh = one_element_mesh(unit_triangle, 0.0, dirichlet=(0,))
    bad = np.array([0.5])  # nonzero constant residual
    with pytest.raises(DivergenceAuditFailed):
        rec.divergence_audit(mesh, bad, np.ones((1, 3)), np.zeros((1, 3)))
    with pytest.raises(DivergenceAuditFailed):     # a NaN meets no tolerance
        rec.divergence_audit(mesh, np.array([np.nan]), np.ones((1, 3)), np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# H(div) conformity
# ---------------------------------------------------------------------------

def test_mixed_variant_trace_mismatch():
    mesh, data, sol, fluxes, R, r_vals = benchmark_setup(3, 4, 2.0, 300.0)
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    variant = np.where(mesh.kappa * mesh.inradii > 1.0, 2, 1).astype(np.int8)
    assert set(np.unique(variant)) == {1, 2}
    [trace] = rec.facet_trace_values(mesh, sol.grad, v1, R, variant[None])
    scale = np.maximum(1.0, np.abs(fluxes.gplus).max(axis=1))
    assert rec.trace_mismatch(mesh, trace, scale) < 1e-11
    g_exact = oracles.equilibrated_trace(mesh, R, sol.grad)
    gscale = np.maximum(1.0, np.abs(g_exact).max(axis=2))
    assert (np.abs(trace - g_exact) / gscale[:, :, None]).max() < 1e-11


def _perturbed_jump_setup(dim, m, seed):
    """A cube mesh with its interior vertices moved by up to 0.15h and kappa 1 left
    of x1 = 0, 30 right of it, solved; returns what the trace audit takes, with
    the tau and taustar selections stacked."""
    base = geo.build_cube_mesh(m, dim, 1.0)
    pts = base.points.copy()
    interior = np.abs(np.abs(pts).max(axis=1) - 1.0) > 1e-12
    rng = np.random.default_rng(seed)
    pts[interior] += rng.uniform(-0.15 * 2.0 / m, 0.15 * 2.0 / m, (interior.sum(), dim))
    kappa = np.where(pts[base.simplices].mean(axis=1)[:, 0] < 0, 1.0, 30.0)
    tags = {tuple(int(v) for v in base.facets[fi]): "D" if base.facet_tag[fi] == 1 else "N"
            for fi in np.flatnonzero(base.facet_tag != 0)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)
        mesh = geo.build_mesh(pts, base.simplices, kappa, tags)
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 0] * x[:, 1], data_degree=2)
    sol = fem.solve_problem(mesh, data)
    report = est.estimate(mesh, sol, data, "both")
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, data.data_degree)[0])
    v1 = rec.variant1_bulk(mesh, R, pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices])
    return mesh, sol, R, v1, np.stack([report.variant_tau, report.variant_taustar])


@pytest.mark.parametrize("dim,m", [(2, 6), (3, 3)])
def test_traces_match_the_pointwise_fields(dim, m):
    # the traces read in closed form (variant 1 from its P2 coefficients,
    # variant 2 from its facet data) against each field evaluated node by node
    # (oracles.variant1_field, oracles.build_variant2), on both selections of the audit
    mesh, sol, R, v1, variant = _perturbed_jump_setup(dim, m, seed=dim)
    assert np.any(variant[0] != variant[1])
    traces = rec.facet_trace_values(mesh, sol.grad, v1, R, variant)
    rule = rule_for(dim - 1, rec.TRACE_DEGREE)
    normals = mesh.outward_normals()
    pairs = oracles.tau_q_pairs(mesh.points.T[:, mesh.simplices.T], v1.grad_r)
    want = np.empty((2, *traces[0].shape))
    for i in range(dim + 1):
        for qi, mu in enumerate(rule.points):
            field = sol.grad + oracles.variant1_field(np.insert(mu, i, 0.0)[None], v1.c, pairs)
            want[0, :, i, qi] = np.einsum("ed,ed->e", field, normals[:, i])
    Rv = eq._to_local_vertices(R)
    for e in np.flatnonzero((variant == 2).any(axis=0)):
        verts = mesh.points[mesh.simplices[e]]
        field = oracles.build_variant2(verts, Rv[e], mesh.kappa[e], sol.grad[e])
        for i, fv in enumerate(geo.facet_vertices(dim)):
            want[1, e, i] = field(rule.points @ verts[fv]) @ normals[e, i]
    for trace, sel in zip(traces, variant):
        for v in (1, 2):
            on = sel == v
            assert on.any()
            scale = np.abs(trace[on]).max()
            assert np.abs(trace[on] - want[v - 1][on]).max() <= 1e-13 * scale
