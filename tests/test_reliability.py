"""Guaranteed upper bound beyond the cube benchmark.

A smooth solution with non-zero Neumann data on perturbed Kuhn meshes in
d = 2, 3, 4, across seven decades of kappa and with a kappa jump: eta_tau
and eta_taustar must bound the degree-10 quadrature of the true error, so the
f- and g_N-oscillation terms with their trace constants are exercised too.
"""
import math
import warnings

import numpy as np
import pytest

import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
from fluxbound.errors import KappaJumpWarning

from test_acceptance import REL_SLACK

KAPPAS = (0.0, 1e-3, 1.0, 10.0, 1e2, 1e4, 1e6)
MOVE = 0.2   # largest vertex displacement, in units of the grid spacing


class SmoothSolution:
    """u = cos(pi x1 / 2) exp(a . x'), x' = (x2, ..., xd), on (-1, 1)^d.

    u vanishes on the Dirichlet faces x1 = +-1; f = -lap u + kappa(x)^2 u and
    g_N = du/dn on the Neumann faces x_j = +-1 (j >= 2). ``kappa`` maps (n, d)
    points to (n,) values.
    """

    def __init__(self, a, kappa):
        self.a = np.asarray(a, dtype=float)
        self.kappa = kappa

    def value(self, x):
        return np.cos(0.5 * math.pi * x[:, 0]) * np.exp(x[:, 1:] @ self.a)

    def gradient(self, x):
        out = np.empty_like(x)
        out[:, 0] = -0.5 * math.pi * np.sin(0.5 * math.pi * x[:, 0]) * np.exp(x[:, 1:] @ self.a)
        out[:, 1:] = self.value(x)[:, None] * self.a
        return out

    def f(self, x):
        return ((math.pi / 2) ** 2 - self.a @ self.a + self.kappa(x) ** 2) * self.value(x)

    def g_N(self, x):
        # the outward normal is +-e_j on the face x_j = +-1
        side = (x[:, 1:] > 1.0 - 1e-12).astype(float) - (x[:, 1:] < -1.0 + 1e-12)
        return self.value(x) * (side @ self.a)


def perturbed_cube(m, dim, kappa, seed, plane=False):
    """Kuhn mesh of (-1, 1)^dim with interior vertices moved by up to MOVE * 2/m.

    With ``plane`` the vertices on x1 = 0 move only within that plane, so the
    elements stay on one side of it. ``kappa`` maps element centroids to kappa.
    """
    base = geo.build_cube_mesh(m, dim, 1.0)
    pts = base.points.copy()
    interior = np.flatnonzero(np.abs(pts).max(axis=1) < 1.0 - 1e-12)
    rng = np.random.default_rng(seed)
    step = rng.standard_normal((len(interior), dim))
    if plane:
        step[np.abs(pts[interior, 0]) < 1e-12, 0] = 0.0
    step *= MOVE * (2.0 / m) * rng.random(len(interior))[:, None] \
        / np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-300)
    pts[interior] += step
    centroids = pts[base.simplices].mean(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)   # one case has a jump on purpose
        return geo.build_mesh(pts, base.simplices, kappa(centroids),
                              lambda c: np.abs(np.abs(c[:, 0]) - 1.0) < 1e-12)


def assert_bound(mesh, exact, label):
    data = fem.ProblemData(f=exact.f, g_N=exact.g_N, data_degree=8)
    sol = fem.solve_problem(mesh, data)
    rep = est.estimate(mesh, sol, data, "both")
    err, _ = est.true_error(mesh, sol, exact)
    assert err > 0.0, label
    assert rep.eta_tau >= err * (1.0 - REL_SLACK), label
    assert rep.eta_taustar >= err * (1.0 - REL_SLACK), label


@pytest.mark.parametrize("dim,m", [(2, 4), (2, 16), (3, 4), (3, 8), (4, 2)])
def test_bound_holds_on_perturbed_meshes(dim, m):
    a = np.array([0.45, -0.3, 0.2])[:dim - 1]
    for kappa in KAPPAS:
        mesh = perturbed_cube(m, dim, lambda c: np.full(len(c), kappa), seed=100 * dim + m)
        exact = SmoothSolution(a, lambda x: np.full(len(x), kappa))
        assert_bound(mesh, exact, kappa)


def test_bound_holds_across_a_kappa_jump():
    ka, kb = 1.0, 1e4

    def kappa(x):
        return np.where(x[:, 0] < 0.0, ka, kb)

    mesh = perturbed_cube(8, 3, kappa, seed=7, plane=True)
    assert set(np.unique(mesh.kappa)) == {ka, kb}
    assert_bound(mesh, SmoothSolution(np.array([0.4, -0.35]), kappa), (ka, kb))


@pytest.mark.parametrize("kappa,rate_f,rate_gn", [(0.0, 3.0, 2.5), (1.0, 3.0, 2.5),
                                                   (1e4, 2.0, 2.0)])
def test_oscillation_rates_under_refinement(kappa, rate_f, rate_gn):
    # smooth data: ||f - Pi_K f||_K = O(h^2 |K|^(1/2)) and its weight is h/pi
    # where kappa*h <= 1, 1/kappa beyond, so the total osc(f) falls like h^3 or
    # h^2; the g_N terms carry sqrt(min2) = O(h^(1/2)) or O(1) instead
    for dim, ms in ((2, (4, 8, 16, 32)), (3, (2, 4, 8))):
        a = np.array([0.45, -0.3])[:dim - 1]
        exact = SmoothSolution(a, lambda x: np.full(len(x), kappa))
        data = fem.ProblemData(f=exact.f, g_N=exact.g_N, data_degree=8)
        osc_f, osc_gn = [], []
        for m in ms:
            mesh = perturbed_cube(m, dim, lambda c: np.full(len(c), kappa), seed=3)
            sol = fem.FemSolution.from_vertex_values(mesh, np.zeros(mesh.n_points), data)
            osc_f.append(np.linalg.norm(est.oscillation_f(mesh, sol)))
            osc_gn.append(np.linalg.norm(est.oscillation_gN(mesh, sol)))
        for values, rate in ((osc_f, rate_f), (osc_gn, rate_gn)):
            rates = np.log2(np.divide(values[:-1], values[1:]))
            assert np.all(np.abs(rates - rate) <= 0.15), (dim, kappa, rates)
