import dataclasses
import math

import numpy as np
import pytest

import fluxbound.equilibration as eq
import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
from fluxbound.errors import (ConformityAuditFailed, KappaJumpWarning, NegativeDifference,
                              UnsolvableProblem)
from fluxbound.quadrature import rule_for

import oracles
from conftest import (DELAUNAY_DATA, ZERO_DATA, delaunay_mesh, dense_projection_oracle,
                      random_simplex)
from test_fem import one_element_mesh


# ---------------------------------------------------------------------------
# trace constants
# ---------------------------------------------------------------------------

def test_trace_constants_reference_triangle():
    # K = unit triangle, gamma = edge (0,0)-(1,0), kappa = 1
    h = math.sqrt(2.0)
    tc = est.trace_constants(2, h, 0.5, 1.0, 1.0)
    assert tc.ct2 == pytest.approx(math.sqrt(12.0), rel=1e-12)
    m = min(h / math.pi, 1.0)
    expected_cbar = (1.0 / (2 * 0.5)) * m * (2 * h + 2 * m)
    assert tc.cbar2 == pytest.approx(expected_cbar, rel=1e-12)
    assert tc.cbar2 == pytest.approx(1.6786, abs=2e-4)
    assert tc.min2 == tc.cbar2


def test_trace_constants_kappa_zero_limit():
    h = math.sqrt(2.0)
    tc0 = est.trace_constants(2, h, 0.5, 1.0, 0.0)
    assert np.isinf(tc0.ct2)
    m = h / math.pi
    assert tc0.cbar2 == pytest.approx((1.0 / 1.0) * m * (2 * h + 2 * m), rel=1e-12)
    tiny = est.trace_constants(2, h, 0.5, 1.0, 1e-9)
    assert tiny.cbar2 == pytest.approx(tc0.cbar2, rel=1e-9)
    assert tiny.min2 == tiny.cbar2  # ct2 blows up as kappa -> 0


def test_constant_function_trace_ratio(unit_triangle):
    # ||v||_gamma^2 / |||v|||_K^2 = |gamma| / (kappa^2 |K|) = 2 for constants
    # on the unit-length edge, below C_T^2 = sqrt(12)
    tc = est.trace_constants(2, math.sqrt(2.0), 0.5, 1.0, 1.0)
    assert 2.0 <= tc.ct2
    # and the mean-free inequality is trivial for constants
    ratios, freed, q = oracles.verify_trace_inequality(
        unit_triangle, 1.0, 50, np.random.default_rng(0))
    assert freed.min() >= 0.0


def test_trace_inequality_monte_carlo(rng):
    for d in (2, 3):
        for _ in range(5):
            pts = random_simplex(d, rng)
            kappa = 10.0 ** rng.uniform(-2, 2)
            max_plain, max_freed, q = oracles.verify_trace_inequality(pts, kappa, 200, rng)
            for i in range(d + 1):
                tc = est.trace_constants(d, q.diameters[0], q.volumes[0],
                                         q.facet_measures[0, i], kappa)
                assert max_plain[i] <= math.sqrt(tc.ct2) * (1 + 1e-12)
                assert max_freed[i] <= math.sqrt(tc.cbar2) * (1 + 1e-12)


def test_trace_constants_batched_with_zero_kappa():
    # one call over arrays: each entry matches the closed forms, ct2 = inf where kappa = 0
    d = 3
    h = np.array([0.5, 1.0, 2.0, 1.5])
    vol = np.array([0.01, 0.1, 0.7, 0.2])
    meas = np.array([0.05, 0.3, 1.1, 0.6])
    kappa = np.array([0.0, 0.3, 40.0, 0.0])
    tc = est.trace_constants(d, h, vol, meas, kappa)
    for j in range(len(h)):
        ratio = meas[j] / (d * vol[j])
        m = h[j] / math.pi if kappa[j] == 0 else min(h[j] / math.pi, 1.0 / kappa[j])
        assert tc.cbar2[j] == pytest.approx(ratio * m * (2 * h[j] + d * m), rel=1e-14)
        if kappa[j] == 0:
            assert np.isinf(tc.ct2[j]) and tc.min2[j] == tc.cbar2[j]
        else:
            ct2 = ratio / kappa[j] * math.hypot(2 * h[j], d / kappa[j])
            assert tc.ct2[j] == pytest.approx(ct2, rel=1e-14)
            assert tc.min2[j] == min(tc.ct2[j], tc.cbar2[j])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_trace_constants_bound_the_exact_polynomial_suprema(d, p):
    # the exact suprema over P_p of ||v||_gamma^2 / |||v|||_K^2 (ct2) and of its
    # mean-free form (cbar2), on every facet of random simplices squashed
    # towards a hyperplane down to rho/h below 1e-3, for kappa h from 0 to 1e4
    rng = np.random.default_rng(100 * d + p)
    worst = {"ct2": 0.0, "cbar2": 0.0}
    flattest = 1.0
    for squash in (0.0, 0.9, 0.99, 0.999, 0.9997):
        pts = random_simplex(d, rng)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        pts -= squash * np.outer(pts @ u, u)
        q = geo.simplex_geometry(pts[None])
        h, vol = q.diameters[0], q.volumes[0]
        flattest = min(flattest, q.inradii[0] / h)
        kappas = np.array([0.0, 1e-2, 1.0, 1e2, 1e4]) / h
        plain, freed = oracles.trace_suprema(pts, p, kappas)
        if p == 2:      # the sampled ratios of criterion 7 cannot exceed the supremum
            sampled = oracles.verify_trace_inequality(pts, kappas[2], 200, rng)
            assert np.all(sampled[0] ** 2 <= plain[2] * (1 + 1e-9))
            assert np.all(sampled[1] ** 2 <= freed[2] * (1 + 1e-9))
        for k, kappa in enumerate(kappas):
            tc = est.trace_constants(d, h, vol, q.facet_measures[0], kappa)
            if kappa > 0:
                assert np.all(plain[k] <= tc.ct2 * (1 + 1e-9)), (squash, kappa * h)
                worst["ct2"] = max(worst["ct2"], (plain[k] / tc.ct2).max())
            assert np.all(freed[k] <= tc.cbar2 * (1 + 1e-9)), (squash, kappa * h)
            worst["cbar2"] = max(worst["cbar2"], (freed[k] / tc.cbar2).max())
    assert flattest < 1e-3
    print(f"\n[PASS] d={d} P_{p}: worst supremum / constant: ct2 {worst['ct2']:.6f}, "
          f"cbar2 {worst['cbar2']:.3f} (rho/h down to {flattest:.1e})")


# ---------------------------------------------------------------------------
# oscillations
# ---------------------------------------------------------------------------

def _element_osc(mesh, f, degree=8):
    # osc_K(f) of a wrapped u_h: the data pass of from_vertex_values at data_degree
    data = fem.ProblemData(f=f, data_degree=degree)
    return est.oscillation_f(mesh, fem.FemSolution.from_vertex_values(
        mesh, np.zeros(mesh.n_points), data))


def _facet_osc(mesh, g_N, degree=8):
    data = fem.ProblemData(f=lambda x: np.zeros(len(x)), g_N=g_N, data_degree=degree)
    return est.oscillation_gN(mesh, fem.FemSolution.from_vertex_values(
        mesh, np.zeros(mesh.n_points), data))


def _neumann_projection(mesh, g_N, degree=8):
    # facet-vertex values of Pi_gamma g_N, the Neumann rows of BoundaryFluxSet.gplus
    neu = np.flatnonzero(mesh.facet_tag == geo.NEUMANN)
    proj = np.zeros((mesh.n_facets, mesh.dim))
    proj[neu] = fem._mass_inverse_times(fem.neumann_data(mesh, g_N, degree)[0],
                                        mesh.facet_measures[neu, None], mesh.dim - 1)
    return proj


def test_oscillation_f_zero_for_affine(two_triangle_square):
    mesh = two_triangle_square
    assert np.abs(_element_osc(mesh, lambda x: np.full(len(x), 3.0))).max() < 1e-13
    assert np.abs(_element_osc(
        mesh, lambda x: 1.0 + x[:, 0] - 2.0 * x[:, 1])).max() < 1e-12


def test_oscillation_f_oracle(unit_triangle):
    mesh = one_element_mesh(unit_triangle, 0.0, dirichlet=(0,))

    def f(x):
        lam1 = 1.0 - x[:, 0] - x[:, 1]
        return lam1 ** 2

    osc = _element_osc(mesh, f, degree=8)[0]
    proj = dense_projection_oracle(f, unit_triangle, degree=10)

    def resid_sq(x):
        lam1 = 1.0 - x[:, 0] - x[:, 1]
        lam = np.column_stack([lam1, x[:, 0], x[:, 1]])
        return (f(x) - lam @ proj) ** 2

    norm = math.sqrt(oracles.integrate(resid_sq, unit_triangle, 10))
    expected = (math.sqrt(2.0) / math.pi) * norm  # kappa = 0 weight
    assert osc == pytest.approx(expected, rel=1e-10)


def test_oscillation_gn_zero_and_affine():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    tags = {(0, 2): "D", (0, 1): "N", (1, 3): "N", (2, 3): "N"}
    mesh = geo.build_mesh(pts, cells, 1.0, tags)
    assert np.abs(_facet_osc(mesh, None)).max() == 0.0

    def g(x):
        return 1.0 + x[:, 0] + x[:, 1]

    vals = _facet_osc(mesh, g)
    assert np.abs(vals).max() < 1e-12


def test_oscillation_gn_quadratic_hand_value(unit_triangle):
    # gamma = unit segment, g_N = x^2: residual norm is 1/sqrt(180)
    mesh = one_element_mesh(unit_triangle, 1.0, dirichlet=(0,))  # hypotenuse Dirichlet

    def g(x):
        return x[:, 0] ** 2

    vals = _facet_osc(mesh, g)
    xaxis = None
    for fi in np.flatnonzero(mesh.facet_tag == geo.NEUMANN):
        fpts = mesh.points[mesh.facets[fi]]
        if np.abs(fpts[:, 1]).max() < 1e-12:
            xaxis = fi
    e = mesh.facet_elems[xaxis, 0]
    tc = est.trace_constants(2, mesh.diameters[e], mesh.volumes[e],
                             mesh.facet_measures[xaxis], mesh.kappa[e])
    expected = math.sqrt(tc.min2) / math.sqrt(180.0)
    assert vals[xaxis] == pytest.approx(expected, rel=1e-10)


def test_oscillation_measures_the_indicator_projection():
    # with a low data degree, osc_K(f) measures f - Pi_K f for the Pi_K f that
    # enters the divergence residual, and osc_gamma(g_N) the Neumann rows of g_K
    mesh = geo.build_cube_mesh(8, 3, 1.0)

    def f(x):
        return np.exp(x[:, 0]) * np.cos(2.0 * x[:, 1]) + np.sin(x[:, 2])

    def g(x):
        return np.cos(x[:, 0] + 2.0 * x[:, 1]) * np.exp(-x[:, 2])

    data = fem.ProblemData(f=f, g_N=g, data_degree=2)
    sol = fem.solve_problem(mesh, data)
    report = est.estimate(mesh, sol, data, "both")

    # both norms come from the solve's data pass, equal bit for bit to
    # quadrature of the data against the projections themselves
    pf = fem.project_element_bulk(mesh, sol.f_loads)
    assert np.array_equal(report.osc_f, est.oscillation_f(mesh, sol))
    assert np.array_equal(report.osc_f, oracles.oscillation_f(mesh, f, pf))
    # an inexact projection can only raise the oscillation above the accurate one's
    assert np.all(report.osc_f >= _element_osc(mesh, f) * (1.0 - 1e-12))

    per_facet = oracles.oscillation_gN(mesh, g, eq.equilibrate(mesh, sol).gplus)
    assert np.array_equal(per_facet, est.oscillation_gN(mesh, sol))
    neu = np.flatnonzero(mesh.facet_tag == geo.NEUMANN)
    per_elem = np.zeros(mesh.n_elements)
    np.add.at(per_elem, mesh.facet_elems[neu, 0], per_facet[neu])
    assert np.array_equal(report.osc_gn, per_elem)
    assert np.all(per_facet[neu] >= oracles.oscillation_gN(mesh, g, _neumann_projection(mesh, g))[neu]
                  * (1.0 - 1e-12))


class CountingData:
    """Vectorized data callable that counts its calls and the points it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += len(x)
        return self.fn(x)


def nq(k, degree):
    return rule_for(k, degree).n_points


def _distinct_nodes(k, degree):
    # nodes shared by the two rules, or repeated within one, count once
    both = np.concatenate([rule_for(k, degree).points, rule_for(k, fem.OSC_DEGREE).points])
    return len({tuple(p) for p in np.round(both, 12)})


def test_data_evaluation_counts(monkeypatch):
    # a solve evaluates f and g_N once, at the distinct nodes of the data_degree
    # and OSC_DEGREE rules: the hat loads, which b, the residuals, Pi_K f and
    # the Neumann fluxes share, and the oscillation norms come from the same
    # values, one call per block of at most DATA_CHUNK (node, simplex) pairs;
    # the estimate evaluates neither again
    assert [_distinct_nodes(k, 8) for k in (1, 2, 3)] == [13, 34, 69]
    assert _distinct_nodes(3, 2) == 69
    mesh = geo.build_cube_mesh(4, 3, 0.0)
    n_neu = int(np.sum(mesh.facet_tag == geo.NEUMANN))
    assert n_neu > 0
    f = CountingData(lambda x: np.exp(x[:, 0]) + x[:, 1] ** 3)
    g = CountingData(lambda x: np.sin(x[:, 1] + x[:, 2]))
    data = fem.ProblemData(f=f, g_N=g, data_degree=4)
    sol = fem.solve_problem(mesh, data)
    nodes_f, nodes_g = _distinct_nodes(3, 4), _distinct_nodes(2, 4)
    assert f.points == mesh.n_elements * nodes_f
    assert g.points == n_neu * nodes_g
    assert (f.calls, g.calls) == (1, 1)
    est.estimate(mesh, sol, data, "both")
    assert (f.calls, f.points) == (1, mesh.n_elements * nodes_f)
    assert (g.calls, g.points) == (1, n_neu * nodes_g)

    # blocks of 7 elements and of 7 * nodes_f // nodes_g facets
    monkeypatch.setattr(fem, "DATA_CHUNK", 7 * nodes_f)
    f.calls = g.calls = 0
    sol = fem.solve_problem(mesh, data)
    assert f.calls == -(-mesh.n_elements // 7)
    assert g.calls == -(-n_neu // (7 * nodes_f // nodes_g))
    monkeypatch.undo()

    # where kappa*rho > 1 the collapsed extensions add the nodes of the
    # EXTENSION_DEGREE rule on each of their d(d+1) sub-simplices, evaluated
    # in blocks of at most EXTENSION_CHUNK points (here 7 elements' worth),
    # one call per block
    nodes = 3 * 4 * nq(3, eq.EXTENSION_DEGREE)
    monkeypatch.setattr(eq, "EXTENSION_CHUNK", 7 * nodes + 1)
    mesh = geo.build_cube_mesh(4, 3, lambda c: np.where(c[:, 0] < 0, 1.0, 60.0))
    layer = int(np.sum(mesh.layer))
    assert 7 < layer < mesh.n_elements
    f = CountingData(lambda x: np.exp(x[:, 0]) + x[:, 1] ** 3)
    data = fem.ProblemData(f=f, data_degree=4)
    sol = fem.solve_problem(mesh, data)
    est.estimate(mesh, sol, data, "both")
    assert f.points == mesh.n_elements * nodes_f + layer * nodes
    assert f.calls == 1 + -(-layer // 7)


def test_estimate_makes_no_neumann_data_call():
    # g_N enters the bound through the solve's loads and oscillation norms only
    mesh = geo.build_cube_mesh(4, 2, lambda c: np.where(c[:, 0] < 0, 0.0, 50.0))
    assert mesh.layer.any() and (mesh.facet_tag == geo.NEUMANN).any()
    g = CountingData(lambda x: np.cos(x[:, 0] + 2.0 * x[:, 1]))
    data = fem.ProblemData(f=lambda x: np.exp(x[:, 1]), g_N=g, data_degree=4)
    sol = fem.solve_problem(mesh, data)
    assert g.calls == 1
    rep = est.estimate(mesh, sol, data, "both", check_conformity=True)
    assert g.calls == 1
    assert rep.osc_gn.max() > 0.0


# ---------------------------------------------------------------------------
# estimate and true error
# ---------------------------------------------------------------------------

class AffineExact:
    def __init__(self, a, b, energy2=None):
        self.a = np.asarray(a, dtype=float)
        self.b = b
        self.energy2 = energy2

    def value(self, x):
        return x @ self.a + self.b

    def gradient(self, x):
        return np.broadcast_to(self.a, x.shape).copy()


def test_estimate_exact_solution_all_zero(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)

    class One:
        energy2 = 1.0  # F(u) = int f*u = |Omega| = 1

        def value(self, x):
            return np.ones(len(x))

        def gradient(self, x):
            return np.zeros_like(x)

    rep = est.estimate(mesh, sol, data, "both")
    direct, energy = est.true_error(mesh, sol, One())
    assert rep.eta_tau <= 1e-10
    assert rep.eta_taustar <= 1e-10
    assert direct <= 1e-10
    # route (b) takes a square root of a cancelled difference: sqrt(eps) floor
    assert energy <= 2e-8


def test_estimate_rejects_foreign_data_and_mesh():
    # a solve with f = 1 estimated with f = 5 would mix the solve's loads with
    # the other data's oscillations; an equal but distinct mesh is foreign too
    mesh = geo.build_cube_mesh(4, 2, 0.0)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    five = fem.ProblemData(f=lambda x: np.full(len(x), 5.0))
    twin = geo.build_cube_mesh(4, 2, 0.0)
    assert np.array_equal(twin.points, mesh.points)
    assert np.array_equal(twin.simplices, mesh.simplices)
    with pytest.raises(ValueError, match="data"):
        est.estimate(mesh, sol, five)
    with pytest.raises(ValueError, match="mesh"):
        est.estimate(twin, sol, data)
    assert est.estimate(mesh, sol, data).eta_tau > 0.0


def test_estimate_scaling_linearity():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=2, m=4, kappa1=2.0, kappa2=7.0)
    mesh = benchmark_mesh(cfg)
    s = 7.0
    data1 = benchmark_data(cfg)
    f_val = cfg.kappa1 ** 2
    data7 = fem.ProblemData(f=lambda x: np.full(len(x), s * f_val), data_degree=2)
    r1 = est.estimate(mesh, fem.solve_problem(mesh, data1), data1, "both")
    r7 = est.estimate(mesh, fem.solve_problem(mesh, data7), data7, "both")
    assert r7.eta_tau == pytest.approx(s * r1.eta_tau, rel=1e-10)
    assert r7.eta_taustar == pytest.approx(s * r1.eta_taustar, rel=1e-10)


def test_estimate_monotonicity_and_strategy_agreement():
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=3, m=2, kappa1=3.0, kappa2=200.0)
    mesh = benchmark_mesh(cfg)
    data = benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    rep = est.estimate(mesh, sol, data, "both")
    assert np.all(rep.eta_k_taustar <= rep.eta_k_tau * (1 + 1e-12))
    assert rep.eta_taustar <= rep.eta_tau * (1 + 1e-12)


def test_strategies_coincide_for_zero_kappa():
    # kappa = 0 everywhere (Dirichlet boundary keeps it solvable)
    mesh = geo.build_cube_mesh(2, 2, 0.0)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)), data_degree=2)
    sol = fem.solve_problem(mesh, data)
    rep = est.estimate(mesh, sol, data, "both")
    assert np.array_equal(rep.variant_tau, rep.variant_taustar)
    assert np.all(rep.variant_tau == 1)
    assert rep.eta_tau == pytest.approx(rep.eta_taustar, rel=1e-14)


def test_true_error_affine_interpolant(two_triangle_square):
    mesh = two_triangle_square
    exact = AffineExact([2.0, -1.0], 0.25)
    sol = fem.FemSolution.from_vertex_values(mesh, exact.value(mesh.points), ZERO_DATA)
    direct, pyth = est.true_error(mesh, sol, exact)
    assert direct < 1e-12
    assert pyth is None  # no analytic energy supplied


def test_true_error_zero_solution_gives_energy(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    f_loads, f_osc_sq = fem.element_data(mesh, data.f, data.data_degree)
    gn_loads, gn_osc_sq = fem.neumann_data(mesh, None, data.data_degree)
    sol0 = fem.FemSolution(mesh=mesh, u=np.zeros(mesh.n_points),
                           grad=np.zeros((mesh.n_elements, 2)), iterations=0,
                           residual=0.0, ndof=0, energy2=0.0, compliance=0.0, data=data,
                           f_loads=f_loads, gn_loads=gn_loads, f_osc_sq=f_osc_sq,
                           gn_osc_sq=gn_osc_sq)

    class One:
        energy2 = 1.0

        def value(self, x):
            return np.ones(len(x))

        def gradient(self, x):
            return np.zeros_like(x)

    direct, pyth = est.true_error(mesh, sol0, One())
    assert pyth == pytest.approx(1.0, rel=1e-12)  # |||u||| = sqrt(F(u)) = 1
    assert direct == pytest.approx(1.0, rel=1e-10)


def test_negative_difference_raised(two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)

    class Bogus:
        energy2 = 0.5  # less than |||u_h|||^2 = 1

        def value(self, x):
            return np.ones(len(x))

        def gradient(self, x):
            return np.zeros_like(x)

    with pytest.raises(NegativeDifference):
        est.true_error(mesh, sol, Bogus())


def test_non_galerkin_solution_smoke(rng):
    # when every element has kappa*rho > 1 the equilibration has no equality
    # constraints, so the estimator applies to an arbitrary conforming u_h
    mesh = geo.build_cube_mesh(2, 2, 40.0)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)), data_degree=2)
    assert (mesh.kappa * mesh.inradii > 1.0).all()
    arbitrary = fem.FemSolution.from_vertex_values(
        mesh, rng.standard_normal(mesh.n_points), data)
    rep = est.estimate(mesh, arbitrary, data, "tau")
    assert np.isfinite(rep.eta_tau) and rep.eta_tau > 0
    assert np.all(rep.variant_tau == 2)


def test_wrapped_solution_reproduces_the_estimate():
    # from_vertex_values builds the data loads as assemble does, so wrapping the
    # Galerkin u_h gives the same fluxes and the same bound, bit for bit
    kappa_fn = lambda c: np.where(c[:, 0] < 0, 0.0, np.where(c[:, 1] < 0, 3.0, 300.0))
    mesh = geo.build_cube_mesh(4, 2, kappa_fn)
    assert mesh.layer.any() and (~mesh.layer).any() and (mesh.kappa == 0).any()
    assert (mesh.facet_tag == geo.NEUMANN).any()
    data = fem.ProblemData(f=lambda x: np.exp(x[:, 0]) * np.sin(x[:, 1]) + 1.0,
                           g_N=lambda x: np.cos(x[:, 0] + 2.0 * x[:, 1]), data_degree=4)
    sol = fem.solve_problem(mesh, data)
    wrapped = fem.FemSolution.from_vertex_values(mesh, sol.u, data)
    assert np.abs(sol.gn_loads).max() > 0.0

    got, want = eq.equilibrate(mesh, wrapped), eq.equilibrate(mesh, sol)
    for name in ("gplus", "alphas", "avg"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.eps_max_rel == want.eps_max_rel

    got = est.estimate(mesh, wrapped, data, "both", check_conformity=True)
    want = est.estimate(mesh, sol, data, "both", check_conformity=True)
    for name in ("eta_k_tau", "eta_k_taustar", "variant_tau", "variant_taustar",
                 "osc_f", "osc_gn"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.eta_tau, got.eta_taustar) == (want.eta_tau, want.eta_taustar)
    assert got.audits == want.audits


def test_all_dirichlet_degenerate_mesh():
    # M = 1 in 2D: every vertex touches a Dirichlet facet, so u_h = 0
    from fluxbound.benchmark import RunConfig, run_benchmark
    rep, row = run_benchmark(RunConfig(dim=2, m=1, kappa1=1.0, kappa2=1.0))
    assert row["ndof"] == 0
    assert row["true_error"] > 0
    assert rep.eta_tau >= row["true_error"] * (1 - 1e-8)


def test_report_json_dump(tmp_path, two_triangle_square):
    mesh = two_triangle_square
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    rep = est.estimate(mesh, sol, data, "tau")
    path = tmp_path / "report.json"
    rep.dump_json(str(path))
    import json
    back = json.loads(path.read_text())
    assert back["strategy"] == "tau"
    assert len(back["eta_k_tau"]) == mesh.n_elements
    assert back["eta_taustar"] is None


def test_conformity_audit_covers_both_selections(monkeypatch):
    # the tau and taustar selections differ on some elements here; the audit
    # must see both, evaluating each variant once per element that uses it
    import fluxbound.reconstruction as rec
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    cfg = RunConfig(dim=2, m=4, kappa1=10.0, kappa2=1e4)
    mesh, data = benchmark_mesh(cfg), benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    picks, rows = [], {1: [], 2: []}
    # variant 1 is counted by the selection of its coefficient builder, variant 2
    # by the batch of its facet data, one _facet_setup per facet
    trace_values = rec.facet_trace_values
    fields = (rec._variant1_coefficients, rec._facet_setup)

    def counting(which, fn):
        def field(*args):
            out = fn(*args)
            rows[which].append(len(args[2] if which == 1 else out[0]))
            return out
        return field

    def spy(mesh, grad, v1, R, variant):
        picks.append(np.array(variant, ndmin=2))
        with monkeypatch.context() as m:
            m.setattr(rec, "_variant1_coefficients", counting(1, fields[0]))
            m.setattr(rec, "_facet_setup", counting(2, fields[1]))
            return trace_values(mesh, grad, v1, R, variant)

    monkeypatch.setattr(rec, "facet_trace_values", spy)
    rep = est.estimate(mesh, sol, data, "both", check_conformity=True)
    tau, star = rep.variant_tau, rep.variant_taustar
    assert np.any(tau != star)
    evaluated = {(e, int(v)) for p in picks for row in p for e, v in enumerate(row)}
    for sel in (tau, star):
        assert {(e, int(v)) for e, v in enumerate(sel)} <= evaluated
    # each field once per element: every call covers the elements that use it
    assert set(rows[1]) == {int(np.sum((tau == 1) | (star == 1)))}
    assert set(rows[2]) == {int(np.sum((tau == 2) | (star == 2)))}
    # the audit value is the worst of the two selections audited one at a time
    monkeypatch.setattr(rec, "facet_trace_values", trace_values)
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, data.data_degree)[0])
    v1 = rec.variant1_bulk(mesh, R, pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices])
    scale = np.maximum(1.0, np.abs(fluxes.gplus).max(axis=1))
    each = [rec.trace_mismatch(mesh, rec.facet_trace_values(mesh, sol.grad, v1, R, sel[None])[0],
                               scale) for sel in (tau, star)]
    assert rep.audits["hdiv_mismatch"] == max(each)
    assert rep.audits["hdiv_mismatch"] <= 1e-11


def test_estimate_calls_eta2_terms_once_on_the_kappa_positive_elements(monkeypatch):
    # one call through the module attribute, which is where a tracer wraps the
    # layer indicator stage: with strategy 'both' on every element with kappa > 0
    import fluxbound.reconstruction as rec
    mesh = geo.build_cube_mesh(4, 2, lambda c: np.where(c[:, 0] < 0, 0.0, 30.0))
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 1])
    sol = fem.solve_problem(mesh, data)
    layer = rec.eta2_terms
    calls = []

    def spy(mesh, R, r_vals, sel):
        calls.append(np.array(sel))
        return layer(mesh, R, r_vals, sel)

    monkeypatch.setattr(rec, "eta2_terms", spy)
    rep = est.estimate(mesh, sol, data, "both")
    assert len(calls) == 1
    pos = np.flatnonzero(mesh.kappa > 0)
    assert 0 < len(pos) < mesh.n_elements
    assert np.array_equal(calls[0], pos)
    assert np.all(np.isfinite(rep.eta_k_taustar))


def test_estimate_calls_eta1_terms_once(monkeypatch):
    # one call through the module attribute, which is where a tracer wraps the
    # variant-1 indicator stage, on every element
    import fluxbound.reconstruction as rec
    mesh = geo.build_cube_mesh(4, 2, lambda c: np.where(c[:, 0] < 0, 0.0, 30.0))
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 1])
    sol = fem.solve_problem(mesh, data)
    polynomial = rec.eta1_terms
    calls = []

    def spy(mesh, v1):
        out = polynomial(mesh, v1)
        calls.append(len(out[0]))
        return out

    monkeypatch.setattr(rec, "eta1_terms", spy)
    rep = est.estimate(mesh, sol, data, "both")
    assert calls == [mesh.n_elements]
    assert np.all(np.isfinite(rep.eta_k_tau))


def test_conformity_audit_failure_raises(monkeypatch):
    # every element has kappa*rho > 1, so the divergence audit checks none and
    # cannot trip first; one interior facet's residual on one side is shifted,
    # which breaks the normal-trace agreement there and nowhere else
    import fluxbound.reconstruction as rec
    mesh = geo.build_cube_mesh(2, 2, 40.0)
    assert mesh.layer.all()
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    assert est.estimate(mesh, sol, data, check_conformity=True).audits["hdiv_mismatch"] \
        <= 1e-11
    f = int(np.flatnonzero(mesh.facet_elems[:, 1] >= 0)[0])
    e, i = mesh.facet_elems[f, 0], mesh.facet_local[f, 0]
    residuals = rec.facet_residuals

    def shifted(*args):
        R = residuals(*args).copy()
        R[e, i] += 1e-6
        return R

    monkeypatch.setattr(rec, "facet_residuals", shifted)
    with pytest.raises(ConformityAuditFailed):
        est.estimate(mesh, sol, data, check_conformity=True)


# ---------------------------------------------------------------------------
# non-finite data
# ---------------------------------------------------------------------------

class TurnsNonFinite:
    """Data callable that is one while ``finite`` is set and NaN after; counts its calls."""

    finite = True
    calls = 0

    def __call__(self, x):
        self.calls += 1
        return np.full(len(x), 1.0 if self.finite else np.nan)


REPORT_ARRAYS = ("eta_k_tau", "eta_k_taustar", "variant_tau", "variant_taustar",
                 "osc_f", "osc_gn")


def test_non_finite_data_raises_typed_error():
    # a NaN source on part of the domain and an infinite Neumann datum
    mesh = geo.build_cube_mesh(4, 2, 1.0)
    assert np.any(mesh.facet_tag == geo.NEUMANN)

    def one(x):
        return np.ones(len(x))

    def nan_f(x):
        return np.where(x[:, 0] > 0.5, np.nan, 1.0)

    def inf_g(x):
        return np.full(len(x), np.inf)

    for data in (fem.ProblemData(f=nan_f), fem.ProblemData(f=one, g_N=inf_g)):
        with pytest.raises(UnsolvableProblem):
            fem.solve_problem(mesh, data)
        # the data pass of a wrapped u_h, which the oscillations read, raises too
        with pytest.raises(UnsolvableProblem):
            fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), data)
    # the collapsed extensions (kappa*rho > 1) evaluate f at their own points
    layer = geo.build_cube_mesh(4, 2, 100.0)
    sol = fem.solve_problem(layer, fem.ProblemData(f=one))
    nan_sol = dataclasses.replace(sol, data=fem.ProblemData(f=nan_f))
    with pytest.raises(UnsolvableProblem):
        eq._extension_volume_terms(layer, nan_sol, np.arange(layer.n_elements))
    # through the estimator: data that is finite for the solve's evaluations
    # and turns non-finite before the estimate's own, which on a layer mesh
    # are those of the collapsed extensions
    turning = TurnsNonFinite()
    data = fem.ProblemData(f=turning)
    sol = fem.solve_problem(layer, data)
    turning.finite = False
    with pytest.raises(UnsolvableProblem):
        est.estimate(layer, sol, data)
    # g_N is never evaluated again: the report is the finite run's
    turning = TurnsNonFinite()
    data = fem.ProblemData(f=one, g_N=turning)
    sol = fem.solve_problem(mesh, data)
    finite = est.estimate(mesh, sol, data)
    turning.finite, calls = False, turning.calls
    report = est.estimate(mesh, sol, data)
    assert turning.calls == calls
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(report, name), getattr(finite, name)), name
    assert (report.eta_tau, report.eta_taustar) == (finite.eta_tau, finite.eta_taustar)
    assert report.audits == finite.audits


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_bound_raises_typed_error():
    # kappa^2 overflows: every audit reads 0 or NaN, and a NaN passes no audit
    # and is no bound
    mesh = geo.build_cube_mesh(4, 2, 1e155)
    data = fem.ProblemData(f=lambda x: np.ones(len(x)))
    sol = fem.solve_problem(mesh, data)
    with pytest.raises(UnsolvableProblem):
        est.estimate(mesh, sol, data, "both", check_conformity=True)


def test_estimate_passes_every_audit_on_a_delaunay_mesh():
    # the patches are solvable only to the solve's residual: a u_h whose PCG
    # recurrence drifted on the slivers to a true residual of 7e-11 failed
    # the divergence audit at 1.5e-9
    mesh = delaunay_mesh(2, 20000)
    sol = fem.solve_problem(mesh, DELAUNAY_DATA)
    report = est.estimate(mesh, sol, DELAUNAY_DATA, check_conformity=True)
    assert report.eta_tau == report.eta_taustar > 0.0   # kappa = 0: variant 1 only


def test_a_point_of_no_element_changes_nothing():
    # a mesh may list a point that no element uses; it is no unknown of the
    # solve and keeps u = 0, so the solution and the estimate equal those of
    # the mesh without it
    with pytest.warns(KappaJumpWarning):
        base = geo.build_cube_mesh(4, 2, lambda c: np.where(c[:, 0] < 0, 0.5, 4000.0))
    tags = {tuple(int(v) for v in base.facets[fi]):
            ("D" if base.facet_tag[fi] == geo.DIRICHLET else "N")
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    with pytest.warns(KappaJumpWarning):
        mesh = geo.build_mesh(np.vstack([base.points, [3.0, 3.0]]), base.simplices,
                              base.kappa, tags)
    assert mesh.layer.any() and (~mesh.layer).any() and len(mesh.neumann)
    data = fem.ProblemData(f=lambda x: 1.0 + x[:, 0] ** 2, g_N=lambda x: np.sin(x[:, 1]))
    want, got = (fem.solve_problem(m, data) for m in (base, mesh))
    ref = est.estimate(base, want, data, check_conformity=True)
    rep = est.estimate(mesh, got, data, check_conformity=True)
    assert got.ndof == want.ndof == 15
    assert np.array_equal(got.u, np.append(want.u, 0.0))
    assert (rep.eta_tau, rep.eta_taustar) == (ref.eta_tau, ref.eta_taustar)
    assert np.array_equal(rep.eta_k_tau, ref.eta_k_tau)
    assert np.array_equal(rep.eta_k_taustar, ref.eta_k_taustar)


@pytest.mark.parametrize("dim,m", [(2, 8), (3, 4)])
def test_estimate_far_from_the_origin(dim, m):
    # variant 1 is translation-invariant; formed from absolute coordinates
    # near 1e7 it lost about half its digits and failed the divergence audit
    s = 1e7
    base = geo.build_cube_mesh(m, dim, 0.0)
    tags = {tuple(int(v) for v in base.facets[fi]):
            ("D" if base.facet_tag[fi] == geo.DIRICHLET else "N")
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    mesh = geo.build_mesh(base.points + s, base.simplices, 0.0, tags)
    data = fem.ProblemData(f=lambda x: 1.0 + (x[:, 0] - s) ** 2,
                           g_N=lambda x: np.sin(x[:, 1] - s))
    sol = fem.solve_problem(mesh, data)
    report = est.estimate(mesh, sol, data, check_conformity=True)
    assert report.audits["divergence_residual"] <= 1e-13
    assert report.audits["hdiv_mismatch"] <= 1e-13


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 4)])
def test_layer_estimate_far_from_the_origin(dim, m):
    # the benchmark cube moved by 1e7, an exact shift of its vertices: the layer
    # field, formed about absolute incentres, failed the conformity audit at
    # 1.4e-7 (d=2) and 3.4e-8 (d=3); in the apex's frame nothing moves
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    s = 1e7
    cfg = RunConfig(dim=dim, m=m, kappa1=100.0, kappa2=1e6)
    base, data = benchmark_mesh(cfg), benchmark_data(cfg)
    with pytest.warns(KappaJumpWarning):
        mesh = geo.build_mesh(base.points + s, base.simplices, base.kappa,
                              lambda c: np.abs(np.abs(c[:, 0] - s) - 1.0) < 1e-12)
    assert np.array_equal(mesh.facet_tag, base.facet_tag)
    reports = [est.estimate(mh, fem.solve_problem(mh, data), data, "both",
                            check_conformity=True) for mh in (base, mesh)]
    want, got = reports
    for name in REPORT_ARRAYS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-13, atol=0.0, err_msg=name)
    assert got.audits["hdiv_mismatch"] <= 1e-14
