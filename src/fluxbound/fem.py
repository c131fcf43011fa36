"""P1 conforming finite elements for -lap(u) + kappa^2 u = f with mixed BCs.

Homogeneous Dirichlet conditions are imposed by row/column elimination, which
keeps the reduced system symmetric positive definite and the Galerkin identity
exact. Data callables are vectorized: they map an (n, d) array of points to
(n,) values.

The data f and g_N are evaluated in one pass per solution (``_data_pass``): at
each distinct node of the ``data_degree`` and ``OSC_DEGREE`` rules, once. The
same values give the hat loads, the L2 projections onto affine functions that
the loads define, and the squared distance of the data from those
projections, which the estimator weights into the data oscillations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergence, UnsolvableProblem
from .geometry import Mesh
from .quadrature import rule_for

DENSE_CUTOFF = 200
SOLVE_TOL = 1e-12         # relative residual target of the linear solve
ENTRY_TOL = 1e-11         # per-entry residual target, relative to |b| + |A| |x| in its row
OSC_DEGREE = 8            # quadrature degree of ||data - projection||^2
DATA_CHUNK = 2 ** 16      # (node, simplex) pairs of the data pass evaluated at a time


@dataclass(frozen=True)
class ProblemData:
    """Source term, Neumann data and the quadrature degree used to integrate them.

    ``f`` and ``g_N`` map (n, d) point arrays to (n,) values; ``g_N=None`` means
    homogeneous Neumann data. The Dirichlet value is fixed to zero. A point
    array is reused once the call returns, so the callables must not keep it.
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


@lru_cache(maxsize=None)
def _data_nodes(k: int, degree: int):
    """Distinct barycentric nodes of the ``degree`` and OSC_DEGREE rules on a k-simplex,
    and the row of each node of either rule, in rule order, among them.

    The Grundmann-Moller rules are nested and repeat some nodes (the centroid
    among them); equal rationals are equal doubles, so exact comparison finds
    every repeat.
    """
    load, osc = rule_for(k, degree), rule_for(k, OSC_DEGREE)
    nodes, where = np.unique(np.concatenate([load.points, osc.points]), axis=0,
                             return_inverse=True)
    where = where.reshape(-1)
    tables = nodes, where[:load.n_points], where[load.n_points:]
    for table in tables:
        table.setflags(write=False)
    return tables


def _data_pass(fn: Callable, name: str, pts: np.ndarray, measures: np.ndarray,
               degree: int):
    """Hat loads and squared projection residuals of ``fn`` on the k-simplices pts (n, k+1, d).

    Returns ``(loads, osc_sq)``: loads (n, k+1) are the integrals of fn against
    the hat functions at ``degree``, osc_sq (n,) is ||fn - Pi fn||^2 at
    OSC_DEGREE, Pi fn the L2 projection onto affine functions, whose vertex
    values are the inverse P1 mass matrix times the loads. fn is called once
    per block of at most DATA_CHUNK (node, simplex) pairs, at the distinct
    nodes of the two rules. Each sum runs over its rule's nodes in rule order,
    as in ``integrate_simplices``, whose results these equal bit for bit when
    fn computes each value independently of the others in its batch.
    """
    n, d = len(pts), pts.shape[2]
    k = pts.shape[1] - 1
    nodes, at_load, at_osc = _data_nodes(k, degree)
    load, osc = rule_for(k, degree), rule_for(k, OSC_DEGREE)
    scale = measures * math.factorial(k)
    loads, osc_sq = np.empty((n, k + 1)), np.empty(n)
    size = max(2, DATA_CHUNK // len(nodes))
    # the points and one product of a block, in buffers that every block reuses
    bufs = [np.empty(len(nodes) * min(n, size + 1) * d) for _ in range(2)]
    lo = 0
    while lo < n:
        # proj @ lam on one row takes numpy's vector-dot path, whose round-off
        # differs from the matrix-vector product: no block of one simplex follows another
        hi = n if n - lo <= size + 1 else lo + size
        x, prod = (b[:len(nodes) * (hi - lo) * d].reshape(len(nodes), -1) for b in bufs)
        corners = pts[lo:hi].transpose(1, 0, 2).reshape(k + 1, -1)
        np.multiply(nodes[:, :1], corners[0], out=x)    # (node, simplex * d): the
        for j in range(1, k + 1):                        # running sum over the corners
            x += np.multiply(nodes[:, j:j + 1], corners[j], out=prod)
        vals = data_values(fn, x.reshape(-1, d), name).reshape(len(nodes), -1)
        terms = vals[at_load, None] * load.points[:, :, None]   # (node, j, simplex)
        terms *= load.weights[:, None, None]
        loads[lo:hi] = _node_sum(terms).T * scale[lo:hi, None]
        proj = _mass_inverse_times(loads[lo:hi], measures[lo:hi, None], k)
        # proj @ lam of every node at once: each entry of the stack is numpy's
        # matrix-vector product, as proj @ lam is (proj @ lams.T would round otherwise)
        resid = vals[at_osc] - np.matmul(proj, osc.points[:, :, None])[..., 0]
        np.square(resid, out=resid)
        resid *= osc.weights[:, None]
        osc_sq[lo:hi] = _node_sum(resid) * scale[lo:hi]
        lo = hi
    return loads, osc_sq


def _node_sum(terms: np.ndarray) -> np.ndarray:
    # sum over the nodes (axis 0) node after node, as a running sum adds them;
    # a reduction would go pairwise over a block of one simplex
    acc = terms[0].copy()
    for term in terms[1:]:
        acc += term
    return acc


def element_data(mesh: Mesh, f: Callable, degree: int):
    """``(loads, osc_sq)`` of f on the elements (see ``_data_pass``): (ne, d+1) and (ne,)."""
    return _data_pass(f, "f", mesh.points[mesh.simplices], mesh.volumes, degree)


def neumann_data(mesh: Mesh, g_N: Callable | None, degree: int):
    """``(loads, osc_sq)`` of g_N on the Neumann facets: (n_N, d) and (n_N,).

    Rows follow ``mesh.neumann``; zero when g_N is None.
    """
    idx = mesh.neumann
    if g_N is None or len(idx) == 0:
        return np.zeros((len(idx), mesh.dim)), np.zeros(len(idx))
    return _data_pass(g_N, "g_N", mesh.points[mesh.facets[idx]],
                      mesh.facet_measures[idx], degree)


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system over the non-Dirichlet vertices of the elements."""

    A: sp.csr_matrix
    b: np.ndarray
    free: np.ndarray           # vertex ids of the dofs
    vertex_to_dof: np.ndarray  # (n_points,), -1 on Dirichlet and unused vertices
    f_loads: np.ndarray        # (ne, d+1) hat loads of f, summed into b
    gn_loads: np.ndarray       # (n_N, d) hat loads of g_N, summed into b
    f_osc_sq: np.ndarray       # (ne,) ||f - Pi_K f||_K^2
    gn_osc_sq: np.ndarray      # (n_N,) ||g_N - Pi_gamma g_N||_gamma^2


def assemble(mesh: Mesh, data: ProblemData) -> LinearSystem:
    """Assemble the P1 Galerkin system; raises UnsolvableProblem when it cannot be SPD."""
    dir_vertices = mesh.dirichlet_vertices
    if np.all(mesh.kappa == 0) and len(dir_vertices) == 0:
        raise UnsolvableProblem(
            "kappa vanishes everywhere and there is no Dirichlet boundary")
    # the data pass first, while no element matrix holds memory
    loads, f_osc_sq = element_data(mesh, data.f, data.data_degree)
    gl, gn_osc_sq = neumann_data(mesh, data.g_N, data.data_degree)
    n_pts = mesh.n_points
    vertex_to_dof = np.full(n_pts, -1, dtype=np.int64)
    # the unknowns are the non-Dirichlet vertices of some element; a point of no
    # element keeps u = 0
    free = np.setdiff1d(np.unique(mesh.simplices), dir_vertices)
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
    np.add.at(b, dofs.ravel()[dofs.ravel() >= 0], loads.ravel()[dofs.ravel() >= 0])
    fdofs = vertex_to_dof[mesh.facets[mesh.neumann]].ravel()
    np.add.at(b, fdofs[fdofs >= 0], gl.ravel()[fdofs >= 0])
    return LinearSystem(A=A, b=b, free=free, vertex_to_dof=vertex_to_dof,
                        f_loads=loads, gn_loads=gl, f_osc_sq=f_osc_sq, gn_osc_sq=gn_osc_sq)


def solve(A, b, max_iter: int | None = None):
    """Solve an SPD system: dense Cholesky below 200 unknowns, Jacobi-PCG above.

    Returns ``(x, iterations, relative_residual)``. PCG has two targets for
    r = b - A x, as a constrained vertex patch is solvable only up to the
    residual at its vertex: ||r|| <= SOLVE_TOL ||b||, which the PCG recurrence
    can miss as it drifts on slivers, and |r_i| <= ENTRY_TOL (|b| + |A| |x|)_i
    in every row, which a small norm can miss on the low side of a kappa jump.
    While one is missed, PCG solves for the correction with what is left of
    max_iter, until a correction fails to halve the worse ratio of residual to
    target (the better iterate stays) or does not converge (the solution so
    far stands). ``iterations`` counts the PCG steps behind x. Raises
    NoConvergence when the first solve does not converge within max_iter
    (default 10n), UnsolvableProblem when the SPD precheck fails.
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
        try:
            L = np.linalg.cholesky(A.toarray())
        except np.linalg.LinAlgError as exc:
            raise UnsolvableProblem(f"dense Cholesky failed: {exc}") from None
        x = np.linalg.solve(L.T, np.linalg.solve(L, b))
        res = float(np.linalg.norm(b - A @ x)) / nb
        return x, 1, res

    if max_iter is None:
        max_iter = 10 * n
    abs_A, inv_diag = abs(A), 1.0 / diag

    def miss(x):
        # the residual and the worse of its two ratios to their targets
        r = b - A @ x
        size = ENTRY_TOL * (abs_A @ np.abs(x) + np.abs(b))
        entry = np.divide(np.abs(r), size, out=np.zeros(n), where=size > 0)
        return r, max(float(np.linalg.norm(r)) / (SOLVE_TOL * nb), float(entry.max()))

    x, iters = _pcg(A, inv_diag, b, max_iter)
    r, worst = miss(x)
    while worst > 1.0:
        try:
            dx, more = _pcg(A, inv_diag, r, max_iter - iters)
        except NoConvergence:
            break   # the solution reached so far stands
        r_new, new = miss(x + dx)
        if new < worst:
            x, iters, r = x + dx, iters + more, r_new
        if new > 0.5 * worst:
            break
        worst = new
    return x, iters, float(np.linalg.norm(r)) / nb


def _pcg(A, inv_diag, b, max_iter: int):
    """Jacobi-PCG for A x = b from x = 0 until the recurrence residual meets
    SOLVE_TOL * ||b||; returns ``(x, iterations)``, raises NoConvergence after max_iter."""
    target = SOLVE_TOL * float(np.linalg.norm(b))
    x = np.zeros(len(b))
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= target:
            return x, it
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
    Pi_K f read them here, so the patch problems use the loads of the solve.
    ``f_osc_sq``/``gn_osc_sq`` are ||f - Pi_K f||_K^2 and ||g_N - Pi_gamma g_N||_gamma^2
    at OSC_DEGREE for those projections, from the same data pass; the
    oscillations weight them. Only the collapsed extensions evaluate ``data``
    again.
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
    f_osc_sq: np.ndarray       # (ne,) ||f - Pi_K f||_K^2
    gn_osc_sq: np.ndarray      # (n_N,) ||g_N - Pi_gamma g_N||_gamma^2, rows as gn_loads

    @classmethod
    def from_vertex_values(cls, mesh: Mesh, values, data: ProblemData) -> "FemSolution":
        """Wrap nodal values (a non-Galerkin u_h) with the data pass ``assemble`` makes.

        ValueError unless the values are a finite (n_points,) array.
        """
        u = np.asarray(values, dtype=float)
        if u.shape != (mesh.n_points,) or not np.all(np.isfinite(u)):
            raise ValueError(f"need {mesh.n_points} finite vertex values, got shape {u.shape}")
        grad = np.einsum("eid,ei->ed", mesh.bary_grads, u[mesh.simplices])
        f_loads, f_osc_sq = element_data(mesh, data.f, data.data_degree)
        gn_loads, gn_osc_sq = neumann_data(mesh, data.g_N, data.data_degree)
        return cls(mesh=mesh, u=u, grad=grad, iterations=0, residual=0.0,
                   ndof=0, energy2=float("nan"), compliance=float("nan"), data=data,
                   f_loads=f_loads, gn_loads=gn_loads, f_osc_sq=f_osc_sq,
                   gn_osc_sq=gn_osc_sq)


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
                       gn_loads=system.gn_loads, f_osc_sq=system.f_osc_sq,
                       gn_osc_sq=system.gn_osc_sq)


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
