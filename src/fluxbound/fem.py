"""P1 conforming finite elements for -lap(u) + kappa^2 u = f with mixed BCs.

Homogeneous Dirichlet conditions are imposed by row/column elimination, which
keeps the reduced system symmetric positive definite and the Galerkin identity
exact. Data callables are vectorized: they map an (n, d) array of points to
(n,) values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NoConvergence, UnsolvableProblem
from .geometry import Mesh
from .quadrature import integrate_simplices

DENSE_CUTOFF = 200
SOLVE_TOL = 1e-12         # relative residual target of the linear solve
ENTRY_TOL = 1e-11         # per-entry residual target, relative to |b| + |A| |x| in its row


@dataclass(frozen=True)
class ProblemData:
    """Source term, Neumann data and the quadrature degree used to integrate them.

    ``f`` and ``g_N`` map (n, d) point arrays to (n,) values; ``g_N=None`` means
    homogeneous Neumann data. The Dirichlet value is fixed to zero.
    """

    f: Callable
    g_N: Callable | None = None
    data_degree: int = 8


def data_values(fn: Callable, x: np.ndarray, name: str) -> np.ndarray:
    """Values of the data callable ``fn`` at the (n, d) points ``x``.

    A NaN or infinite datum would turn the bound into NaN, so it raises
    UnsolvableProblem instead.
    """
    vals = np.asarray(fn(x), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(np.broadcast_to(bad, (len(x),)))[0])
        raise UnsolvableProblem(f"{name} is not finite at x = {x[i].tolist()}")
    return vals


def element_stiffness_mass(mesh: Mesh):
    """Per-element stiffness |K| G G^T and unit mass |K| (1 + I) / ((d+1)(d+2))."""
    d = mesh.dim
    g = mesh.bary_grads
    stiff = np.einsum("eid,ejd->eij", g, g) * mesh.volumes[:, None, None]
    return stiff, _mass_times(np.eye(d + 1), mesh.volumes[:, None, None], d)


def _hat_loads(fn: Callable, name: str, pts: np.ndarray, measures: np.ndarray,
               degree: int) -> np.ndarray:
    # integrals of fn against the hat functions of the k-simplices pts (n, k+1, d)
    return integrate_simplices(lambda x, lam: data_values(fn, x, name)[:, None] * lam,
                               pts, measures, degree)


def element_loads(mesh: Mesh, f: Callable, degree: int) -> np.ndarray:
    """(ne, d+1) array of the integrals of f against the element hat functions."""
    return _hat_loads(f, "f", mesh.points[mesh.simplices], mesh.volumes, degree)


def neumann_loads(mesh: Mesh, g_N: Callable | None, degree: int) -> np.ndarray:
    """(n_N, d) integrals of g_N against the facet hat functions of the Neumann facets.

    Rows follow ``mesh.neumann``; zero when g_N is None.
    """
    idx = mesh.neumann
    if g_N is None or len(idx) == 0:
        return np.zeros((len(idx), mesh.dim))
    return _hat_loads(g_N, "g_N", mesh.points[mesh.facets[idx]],
                      mesh.facet_measures[idx], degree)


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system over the non-Dirichlet vertices."""

    A: sp.csr_matrix
    b: np.ndarray
    free: np.ndarray           # vertex ids of the dofs
    vertex_to_dof: np.ndarray  # (n_points,), -1 on Dirichlet vertices
    f_loads: np.ndarray        # (ne, d+1) element_loads of f, summed into b
    gn_loads: np.ndarray       # (n_N, d) neumann_loads of g_N, summed into b


def assemble(mesh: Mesh, data: ProblemData) -> LinearSystem:
    """Assemble the P1 Galerkin system; raises UnsolvableProblem when it cannot be SPD."""
    dir_vertices = mesh.dirichlet_vertices
    if np.all(mesh.kappa == 0) and len(dir_vertices) == 0:
        raise UnsolvableProblem(
            "kappa vanishes everywhere and there is no Dirichlet boundary")
    n_pts = mesh.n_points
    vertex_to_dof = np.full(n_pts, -1, dtype=np.int64)
    free = np.setdiff1d(np.arange(n_pts), dir_vertices)
    vertex_to_dof[free] = np.arange(len(free))

    stiff, mass = element_stiffness_mass(mesh)
    local = stiff + mesh.kappa[:, None, None] ** 2 * mass
    dofs = vertex_to_dof[mesh.simplices]        # (ne, d+1)
    rows = np.repeat(dofs, mesh.dim + 1, axis=1).ravel()
    cols = np.tile(dofs, (1, mesh.dim + 1)).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = len(free)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()

    b = np.zeros(n)
    loads = element_loads(mesh, data.f, data.data_degree)
    np.add.at(b, dofs.ravel()[dofs.ravel() >= 0], loads.ravel()[dofs.ravel() >= 0])
    gl = neumann_loads(mesh, data.g_N, data.data_degree)
    fdofs = vertex_to_dof[mesh.facets[mesh.neumann]].ravel()
    np.add.at(b, fdofs[fdofs >= 0], gl.ravel()[fdofs >= 0])
    return LinearSystem(A=A, b=b, free=free, vertex_to_dof=vertex_to_dof,
                        f_loads=loads, gn_loads=gl)


def solve(A, b, max_iter: int | None = None):
    """Solve an SPD system: dense Cholesky below 200 unknowns, Jacobi-PCG above.

    Returns ``(x, iterations, relative_residual)`` with
    ||b - A x|| <= SOLVE_TOL * ||b|| whenever that is attainable in float64; when the
    round-off floor eps * || |A| |x| || lies above the target the iteration
    stops there and reports the achieved residual instead of stalling. If an
    entry of b - A x then exceeds ENTRY_TOL * (|b| + |A| |x|), as on the low side
    of a kappa jump, one PCG solve for the correction follows with what is left
    of max_iter; should it fail, the first solution stands. Raises NoConvergence
    when the first solve does not converge within max_iter (default 10n) and
    UnsolvableProblem when the SPD precheck fails.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if n == 0:
        return np.zeros(0), 0, 0.0
    A = sp.csr_matrix(A)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise UnsolvableProblem("matrix has a nonpositive diagonal entry")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros(n), 0, 0.0
    if n < DENSE_CUTOFF:
        dense = A.toarray()
        try:
            c, low = scipy.linalg.cho_factor(dense, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise UnsolvableProblem(f"dense Cholesky failed: {exc}") from None
        x = scipy.linalg.cho_solve((c, low), b, check_finite=False)
        res = float(np.linalg.norm(b - A @ x)) / nb
        return x, 1, res

    if max_iter is None:
        max_iter = 10 * n
    abs_A, inv_diag = abs(A), 1.0 / diag
    x, iters = _pcg(A, abs_A, inv_diag, b, max_iter)
    r = b - A @ x
    if np.any(np.abs(r) > ENTRY_TOL * (abs_A @ np.abs(x) + np.abs(b))):
        try:
            dx, more = _pcg(A, abs_A, inv_diag, r, max_iter - iters)
            x, iters = x + dx, iters + more
            r = b - A @ x
        except NoConvergence:
            pass   # the first solution stands
    return x, iters, float(np.linalg.norm(r)) / nb


def _pcg(A, abs_A, inv_diag, b, max_iter: int):
    """Jacobi-PCG for A x = b from x = 0; returns ``(x, iterations)`` (see ``solve``)."""
    nb = float(np.linalg.norm(b))
    eps = np.finfo(float).eps
    x = np.zeros(len(b))
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    best = np.inf
    strikes = 0
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= SOLVE_TOL * nb or it % 64 == 0:
            true_r = b - A @ x   # recurrence drift check
            res = float(np.linalg.norm(true_r))
            floor = 128.0 * eps * (float(np.linalg.norm(abs_A @ np.abs(x))) + nb)
            if res <= max(SOLVE_TOL * nb, floor):
                return x, it
            # a plateau at the round-off floor counts as converged; a plateau
            # well above it is a genuine failure
            strikes = strikes + 1 if res > 0.5 * best else 0
            best = min(best, res)
            if strikes >= 3:
                if res <= 64.0 * floor:
                    return x, it
                raise NoConvergence(
                    f"PCG stagnated at relative residual {res / nb:.3e}")
            r = true_r
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(f"PCG did not reach {SOLVE_TOL:g} within {max_iter} iterations")


@dataclass(frozen=True)
class FemSolution:
    """Nodal P1 solution with its problem data, data loads and solver diagnostics.

    ``f_loads``/``gn_loads`` are the hat loads of f and g_N at ``data_degree``, for
    a Galerkin u_h the arrays summed into b. The residuals, the Neumann fluxes and
    Pi_K f read them here, so the patch problems use the loads of the solve; the
    oscillations and the collapsed extensions evaluate ``data`` itself.
    """

    mesh: Mesh
    u: np.ndarray              # (n_points,), zero on Dirichlet vertices
    grad: np.ndarray           # (ne, d), constant per element
    iterations: int
    residual: float
    ndof: int
    energy2: float             # x . A x  =  |||u_h|||^2 (exact up to round-off)
    compliance: float          # b . x    =  F(u_h) up to data-quadrature error
    data: ProblemData          # the data u_h was solved (or wrapped) with
    f_loads: np.ndarray        # (ne, d+1) integrals of f against the element hats
    gn_loads: np.ndarray       # (n_N, d) integrals of g_N against the Neumann facet hats

    @classmethod
    def from_vertex_values(cls, mesh: Mesh, values, data: ProblemData) -> "FemSolution":
        """Wrap nodal values (a non-Galerkin u_h) with the loads ``assemble`` builds from data."""
        u = np.asarray(values, dtype=float)
        grad = np.einsum("eid,ei->ed", mesh.bary_grads, u[mesh.simplices])
        return cls(mesh=mesh, u=u, grad=grad, iterations=0, residual=0.0,
                   ndof=0, energy2=float("nan"), compliance=float("nan"), data=data,
                   f_loads=element_loads(mesh, data.f, data.data_degree),
                   gn_loads=neumann_loads(mesh, data.g_N, data.data_degree))


def solve_problem(mesh: Mesh, data: ProblemData) -> FemSolution:
    """Assemble and solve; the returned solution carries the Galerkin energies and loads."""
    system = assemble(mesh, data)
    x, iters, res = solve(system.A, system.b)
    u = np.zeros(mesh.n_points)
    u[system.free] = x
    grad = np.einsum("eid,ei->ed", mesh.bary_grads, u[mesh.simplices])
    return FemSolution(mesh=mesh, u=u, grad=grad, iterations=iters, residual=res,
                       ndof=len(system.free), energy2=float(x @ (system.A @ x)),
                       compliance=float(system.b @ x), data=data, f_loads=system.f_loads,
                       gn_loads=system.gn_loads)


# ---------------------------------------------------------------------------
# L2 projections onto affine functions
# ---------------------------------------------------------------------------

def _mass_times(values: np.ndarray, measure, k: int):
    # P1 mass matrix of a k-simplex: measure (I + 11^T) / ((k+1)(k+2))
    return measure * (values + values.sum(axis=-1, keepdims=True)) / ((k + 1) * (k + 2))


def _mass_norm_sq(values: np.ndarray, measure, k: int):
    # v^T M v for the P1 mass matrix M of a k-simplex (see _mass_times)
    return measure * ((values ** 2).sum(axis=-1) + values.sum(axis=-1) ** 2) / ((k + 1) * (k + 2))


def _mass_inverse_times(values: np.ndarray, measure, k: int):
    # inverse of the P1 mass matrix of a k-simplex: (I + 11^T)^-1 = I - 11^T/(k+2)
    scale = (k + 1) * (k + 2) / measure
    return scale * (values - values.sum(axis=-1, keepdims=True) / (k + 2))


def project_element_bulk(mesh: Mesh, loads: np.ndarray) -> np.ndarray:
    """(ne, d+1) vertex values of Pi_K f from the hat loads of f, ``FemSolution.f_loads``."""
    return _mass_inverse_times(loads, mesh.volumes[:, None], mesh.dim)
