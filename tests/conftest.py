"""Shared fixtures and independent oracles for the test suite."""
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.spatial

from fluxbound.errors import KappaJumpWarning
from fluxbound.fem import ProblemData
from fluxbound.geometry import build_cube_mesh, build_mesh, simplex_geometry
from fluxbound.quadrature import rule_for


# data for wrapping nodal values where the data loads play no part
ZERO_DATA = ProblemData(f=lambda x: np.zeros(len(x)))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def bary_monomial_integral(exponents, volume: float) -> float:
    """Closed form int_K prod lambda_i^{a_i} = d! |K| prod(a_i!) / (sum a + d)!."""
    a = list(exponents)
    d = len(a) - 1
    num = math.factorial(d) * volume
    for ai in a:
        num *= math.factorial(ai)
    return num / math.factorial(sum(a) + d)


def kkt_min_norm_oracle(C, c, E, e, rcond=1e-12):
    """Equality-constrained least squares via the dense KKT system.

    Solves min ||E a - e|| s.t. C a = c, with minimal-norm tie-breaking, through
    a single min-norm least-squares solve of the stationarity system. This is
    an independent route from the production nullspace method.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    E = np.atleast_2d(np.asarray(E, dtype=float))
    nu = C.shape[1] if C.size else E.shape[1]
    nc = C.shape[0] if C.size else 0
    K = np.zeros((nu + nc, nu + nc))
    rhs = np.zeros(nu + nc)
    if E.size:
        K[:nu, :nu] = E.T @ E
        rhs[:nu] = E.T @ np.asarray(e, dtype=float)
    if nc:
        K[:nu, nu:] = C.T
        K[nu:, :nu] = C
        rhs[nu:] = np.asarray(c, dtype=float)
    z, *_ = np.linalg.lstsq(K, rhs, rcond=rcond)
    return z[:nu]


def fd_divergence(flux, x, step):
    """Central finite-difference divergence of a vector field closure."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    out = np.zeros(len(x))
    for i in range(d):
        dx = np.zeros(d)
        dx[i] = step
        out += (flux(x + dx)[:, i] - flux(x - dx)[:, i]) / (2.0 * step)
    return out


def dense_projection_oracle(f, vertices, degree=10):
    """L2 projection onto affine functions by brute-force normal equations."""
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    rule = rule_for(d, degree)
    x = rule.points @ vertices
    vol = one_simplex(vertices).volumes[0] * math.factorial(d)
    w = rule.weights * vol
    M = np.einsum("q,qi,qj->ij", w, rule.points, rule.points)
    rhs = np.einsum("q,qi,q->i", w, rule.points, np.asarray(f(x)))
    return np.linalg.solve(M, rhs)


def one_simplex(pts):
    """simplex_geometry of a single simplex, a batch of one: read entry [0] of each field."""
    return simplex_geometry(np.asarray(pts, dtype=float)[None])


def random_simplex(d, rng, scale=1.0, quality=0.02):
    """Random non-degenerate simplex with a minimal shape quality."""
    while True:
        pts = rng.standard_normal((d + 1, d)) * scale
        diff = pts[:, None, :] - pts[None, :, :]
        h = np.sqrt((diff ** 2).sum(-1)).max()
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(d)
        if vol * math.factorial(d) >= quality * h ** d:
            return pts


def random_small_mesh(rng, dim=None, allow_zero_kappa=True):
    """Perturbed cube mesh with random piecewise-constant kappa (solvable setup)."""
    dim = int(rng.integers(2, 4)) if dim is None else dim
    m = int(rng.integers(1, 3 if dim == 3 else 4))
    base = build_cube_mesh(m, dim, 1.0)
    pts = base.points.copy()
    interior = np.abs(np.abs(pts).max(axis=1) - 1.0) > 1e-12
    h = 2.0 / m
    pts[interior] += rng.uniform(-0.18 * h, 0.18 * h, (interior.sum(), dim))
    kappa = 10.0 ** rng.uniform(-1.0, 2.2, base.n_elements)
    if allow_zero_kappa:
        kappa[rng.random(base.n_elements) < 0.25] = 0.0
    tags = {}
    for fi in np.flatnonzero(base.facet_tag != 0):
        tags[tuple(int(v) for v in base.facets[fi])] = \
            "D" if base.facet_tag[fi] == 1 else "N"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)  # random kappa jumps freely
        return build_mesh(pts, base.simplices, kappa, tags)


@functools.lru_cache(maxsize=2)
def delaunay_mesh(d, n):
    """The seeded Delaunay family (d, n) of (-1, 1)^d, with kappa = 0.

    The boundary points of a 5^d grid, int(n^((d-1)/d)) uniform points on each
    of the 2d faces and n uniform interior points in (-0.97, 0.97)^d, rounded
    to 12 digits and triangulated by scipy. Unlike a Kuhn mesh it has slivers
    and patches of every topology. The faces x1 = +-1 are Dirichlet, the rest
    Neumann; ``DELAUNAY_DATA`` is the problem posed on it. A mesh is immutable,
    so the tests share one per (d, n).
    """
    rng = np.random.default_rng(0)
    grid = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 5), repeat=d)))
    parts = [grid[np.abs(grid).max(axis=1) == 1.0]]
    for axis in range(d):
        for side in (-1.0, 1.0):
            face = rng.uniform(-1.0, 1.0, (int(n ** ((d - 1) / d)), d))
            face[:, axis] = side
            parts.append(face)
    parts.append(rng.uniform(-0.97, 0.97, (n, d)))
    pts = np.unique(np.round(np.concatenate(parts), 12), axis=0)
    return build_mesh(pts, scipy.spatial.Delaunay(pts).simplices, 0.0,
                      lambda c: np.abs(c[:, 0]) == 1.0)


def zoned_mesh(dim, m):
    """The cube mesh of ``build_cube_mesh(m, dim, .)`` in three kappa zones along x1,
    0 below -0.5, 2 up to 0.5 and 10 above, so that the elements are
    constrained with kappa = 0, constrained with kappa > 0 and layer elements
    (at M = 4 in 2D or M = 2 in 3D), where the tau and taustar selections differ;
    Dirichlet on x1 = +-1 and Neumann elsewhere, and one more point, (3, ..., 3),
    that no element uses."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)   # the jumps are the test case
        base = build_cube_mesh(m, dim, lambda c: np.select(
            [c[:, 0] < -0.5, c[:, 0] < 0.5], [0.0, 2.0], 10.0))
        return build_mesh(np.vstack([base.points, np.full(dim, 3.0)]), base.simplices,
                          base.kappa, lambda c: np.abs(np.abs(c[:, 0]) - 1.0) < 1e-12)


ZONED_DATA = ProblemData(f=lambda x: np.exp(x[:, 0]) * np.cos(2.0 * x[:, -1]),
                         g_N=lambda x: np.sin(x[:, 1]) + x[:, 0], data_degree=4)


DELAUNAY_DATA = ProblemData(f=lambda x: 1.0 + x[:, 0] ** 2,
                            g_N=lambda x: np.sin(x[:, 1]), data_degree=2)


def random_problem_data(rng, dim):
    """Random smooth data with vectorized closures."""
    from fluxbound.fem import ProblemData
    a0 = rng.standard_normal()
    a = rng.standard_normal(dim)
    b = rng.standard_normal(dim)

    def f(x, a0=a0, a=a, b=b):
        return a0 + x @ a + (x ** 2) @ b

    c0 = rng.standard_normal()
    c = rng.standard_normal(dim)

    def g(x, c0=c0, c=c):
        return c0 + x @ c

    return ProblemData(f=f, g_N=g if rng.random() < 0.7 else None, data_degree=8)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20240511)


@pytest.fixture
def unit_triangle():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def two_triangle_square():
    """Unit square (0,1)^2 split along the diagonal, all-Neumann boundary."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    return build_mesh(pts, cells, 1.0, lambda c: np.zeros(len(c), dtype=bool))
