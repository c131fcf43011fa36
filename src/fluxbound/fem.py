"""P1 conforming finite elements for -lap(u) + kappa^2 u = f with mixed BCs.

Homogeneous Dirichlet conditions are imposed by row/column elimination, which
keeps the reduced system symmetric positive definite and the Galerkin identity
exact. The matrix has one layout, ``PaddedRows``: its rows padded to one
width, whose columns the mesh is built with (``geometry.build_matrix_pattern``).
``assemble`` fills their values and ``solve`` reads them as they are, with
numpy alone. Data callables are vectorized: they map an (n, d) array of points
to (n,) values.

The data f and g_N are evaluated in one pass per solution (``_data_pass``), once
at each distinct node of one rule (``data_rule_degree``). The same values give
the hat loads, the L2 projections onto affine functions that the loads define,
and the squared distance of the data from those projections, which the
estimator weights into the data oscillations. No data call, here or in
``equilibration``, gets more than DATA_CHUNK points plus one simplex's nodes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoConvergence, UnsolvableProblem, UnsupportedDegree
from .geometry import Mesh, _row_sum
from .quadrature import MAX_DEGREE, rule_for

DENSE_CUTOFF = 200
SOLVE_TOL = 1e-12         # relative residual target of the linear solve
ENTRY_TOL = 1e-11         # per-entry residual target, relative to |b| + |A| |x| in its row
OSC_DEGREE = 8            # the data rule's degree for data_degree >= 4
DATA_CHUNK = 2 ** 15      # points of one data call, plus one simplex's nodes
ELEMENT_CHUNK = 2 ** 13   # elements of a row-independent stage processed at a time
KAPPA_MAX = math.sqrt(np.finfo(float).max)   # kappa^2 overflows above this


@dataclass(frozen=True)
class ProblemData:
    """Source term, Neumann data and the polynomial degree they are declared to have.

    ``f`` and ``g_N`` map (n, d) point arrays to (n,) values; ``g_N=None`` means
    homogeneous Neumann data. The Dirichlet value is fixed to zero. A point
    array is reused once the call returns, so the callables must not keep it.

    ``data_degree`` is a contract: f and g_N are polynomials of at most that total
    degree on every element and Neumann facet; up to 4 their loads and oscillation
    norms are then exact (``data_rule_degree``). ValueError for a bool, a
    non-integer or a negative degree, UnsupportedDegree above MAX_DEGREE.
    """

    f: Callable
    g_N: Callable | None = None
    data_degree: int = 8

    def __post_init__(self):
        deg = self.data_degree
        if isinstance(deg, bool) or not isinstance(deg, numbers.Integral) or deg < 0:
            raise ValueError(f"data_degree must be a non-negative integer, got {deg!r}")
        if deg > MAX_DEGREE:
            raise UnsupportedDegree(f"data_degree {deg} exceeds the maximum {MAX_DEGREE}")


def data_rule_degree(data_degree: int) -> int:
    """Degree of the data pass's rule: exact for the loads f lambda (degree
    data_degree + 1) and for ||f - Pi f||^2 (degree 2 data_degree) up to OSC_DEGREE."""
    return min(max(data_degree + 1, min(2 * data_degree, OSC_DEGREE)), MAX_DEGREE)


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


def element_blocks(n: int) -> list:
    """Slices of at most ELEMENT_CHUNK consecutive rows that cover range(n).

    The row-independent stages run block by block, so that only their
    per-element outputs are mesh-sized.
    """
    return [slice(lo, min(lo + ELEMENT_CHUNK, n)) for lo in range(0, n, ELEMENT_CHUNK)]


def element_stiffness_mass(mesh: Mesh, elems=slice(None)):
    """Stiffness |K| G G^T and unit mass |K| (1 + I) / ((d+1)(d+2)) of the elements ``elems``."""
    d = mesh.dim
    g = mesh.bary_grads[elems]
    volumes = mesh.volumes[elems, None, None]
    stiff = np.einsum("eid,ejd->eij", g, g) * volumes
    return stiff, _mass_times(np.eye(d + 1), volumes, d)


def _data_pass(fn: Callable, name: str, points: np.ndarray, cells: np.ndarray,
               measures: np.ndarray, data_degree: int):
    """Hat loads and squared projection residuals of ``fn`` on the k-simplices whose
    vertices are the rows ``cells`` (n, k+1) of ``points`` (n_points, d).

    Returns ``(loads, osc_sq)``: loads (n, k+1) are the integrals of fn against
    the hat functions, osc_sq (n,) is ||fn - Pi fn||^2, Pi fn the L2 projection
    onto affine functions, whose vertex values are the inverse P1 mass matrix
    times the loads. Both sum over one rule, of degree ``data_rule_degree``. fn
    is called at the rule's distinct nodes (a rule can repeat one; equal
    rationals are equal doubles), once per block of DATA_CHUNK // nodes
    simplices, two at least, the last taking a lone simplex left over. Each
    sum runs over the rule's nodes in rule order, as in ``integrate_simplices``,
    whose results these equal bit for bit when fn computes each value
    independently of the others in its batch.
    """
    n, d = len(cells), points.shape[1]
    k = cells.shape[1] - 1
    rule = rule_for(k, data_rule_degree(data_degree))
    nodes, where = np.unique(rule.points, axis=0, return_inverse=True)
    scale = measures * math.factorial(k)
    loads, osc_sq = np.empty((n, k + 1)), np.empty(n)
    size = max(2, DATA_CHUNK // len(nodes))
    buf = np.empty(len(nodes) * min(n, size + 1) * d)   # the points of a block, reused
    lo = 0
    while lo < n:
        # proj @ lam on one row takes numpy's vector-dot path, whose round-off
        # differs from the matrix-vector product: no block of one simplex follows another
        hi = n if n - lo <= size + 1 else lo + size
        x = buf[:len(nodes) * (hi - lo) * d].reshape(len(nodes), -1)
        corners = np.take(points, cells[lo:hi].T, axis=0).reshape(k + 1, -1)
        # (node, simplex * d): einsum without BLAS adds the corner products in
        # order, the running sum of integrate_simplices
        np.einsum("qj,js->qs", nodes, corners, out=x)
        vals = data_values(fn, x.reshape(-1, d), name).reshape(len(nodes), -1)[where.ravel()]
        terms = vals[:, None] * rule.points[:, :, None]   # (rule node, j, simplex)
        terms *= rule.weights[:, None, None]
        loads[lo:hi] = _node_sum(terms).T * scale[lo:hi, None]
        proj = _mass_inverse_times(loads[lo:hi], measures[lo:hi, None], k)
        # proj @ lam of every node at once: each entry of the stack is numpy's
        # matrix-vector product, as proj @ lam is (proj @ lams.T would round otherwise)
        resid = vals - np.matmul(proj, rule.points[:, :, None])[..., 0]
        np.square(resid, out=resid)
        resid *= rule.weights[:, None]
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


def element_data(mesh: Mesh, f: Callable, data_degree: int):
    """``(loads, osc_sq)`` of f on the elements (see ``_data_pass``): (ne, d+1) and (ne,)."""
    return _data_pass(f, "f", mesh.points, mesh.simplices, mesh.volumes, data_degree)


def neumann_data(mesh: Mesh, g_N: Callable | None, data_degree: int):
    """``(loads, osc_sq)`` of g_N on the Neumann facets: (n_N, d) and (n_N,).

    Rows follow ``mesh.neumann``; zero when g_N is None.
    """
    idx = mesh.neumann
    if g_N is None or len(idx) == 0:
        return np.zeros((len(idx), mesh.dim)), np.zeros(len(idx))
    return _data_pass(g_N, "g_N", mesh.points, mesh.facets[idx],
                      mesh.facet_measures[idx], data_degree)


class PaddedRows(NamedTuple):
    """Square sparse matrix as rows padded to one width, slot-major: slot k of
    row i holds the column ``cols[k, i]`` and the value ``vals[k, i]`` of its
    k-th entry, or i and 0 beyond the row's length.

    ``A @ x`` sums each row slot after slot from 0, the order of scipy's
    csr_matvec, whose results it equals bit for bit.
    """

    cols: np.ndarray   # (width, n)
    vals: np.ndarray   # (width, n)

    def __matmul__(self, x):
        terms = np.take(x, self.cols)
        terms *= self.vals
        return np.add.reduce(terms, axis=0, initial=0.0)   # slot after slot


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system over the non-Dirichlet vertices of the elements."""

    A: PaddedRows              # the mesh's pattern (build_matrix_pattern)
    b: np.ndarray
    free: np.ndarray           # vertex ids of the dofs
    f_loads: np.ndarray        # (ne, d+1) hat loads of f, summed into b
    gn_loads: np.ndarray       # (n_N, d) hat loads of g_N, summed into b
    f_osc_sq: np.ndarray       # (ne,) ||f - Pi_K f||_K^2
    gn_osc_sq: np.ndarray      # (n_N,) ||g_N - Pi_gamma g_N||_gamma^2


def assemble(mesh: Mesh, data: ProblemData) -> LinearSystem:
    """Assemble the P1 Galerkin system; raises UnsolvableProblem when it cannot be SPD
    or when kappa^2 overflows.

    The element matrices are computed ELEMENT_CHUNK elements at a time and
    added into the matrix pattern the mesh was built with, each entry at its
    position there, in element order, so A does not depend on the block size.
    """
    dir_vertices = mesh.dirichlet_vertices
    if np.all(mesh.kappa == 0) and len(dir_vertices) == 0:
        raise UnsolvableProblem(
            "kappa vanishes everywhere and there is no Dirichlet boundary")
    kappa_max = float(mesh.kappa.max(initial=0.0))
    if not kappa_max <= KAPPA_MAX:
        raise UnsolvableProblem(f"kappa^2 overflows: kappa reaches {kappa_max:.3e}")
    # the data pass first, while no element matrix holds memory
    loads, f_osc_sq = element_data(mesh, data.f, data.data_degree)
    gl, gn_osc_sq = neumann_data(mesh, data.g_N, data.data_degree)
    # the unknowns are the non-Dirichlet vertices of some element; a point of no
    # element keeps u = 0
    vertex_to_dof = mesh._vertex_to_dof
    free = np.flatnonzero(vertex_to_dof >= 0)
    cols = mesh._pattern_cols
    values = np.zeros(cols.size)
    b = np.zeros(len(free))
    for blk in element_blocks(mesh.n_elements):
        local, mass = element_stiffness_mass(mesh, blk)
        local += mesh.kappa[blk, None, None] ** 2 * mass
        pos = mesh._entry_positions[blk]
        keep = pos < cols.size        # not in a Dirichlet row or column
        np.add.at(values, pos[keep], local[keep])
        dofs = vertex_to_dof[mesh.simplices[blk]]           # (nb, d+1)
        on = (dofs >= 0).ravel()
        np.add.at(b, np.compress(on, dofs), np.compress(on, loads[blk]))
    # A gets writeable columns of its own: np.take copies a read-only index
    # array (the mesh's are) on every product; with the copy a product is
    # ~15% faster than x[cols] (README, the P1 system)
    A = PaddedRows(cols.copy(), values.reshape(cols.shape))
    fdofs = vertex_to_dof[mesh.facets[mesh.neumann]].ravel()
    np.add.at(b, fdofs[fdofs >= 0], gl.ravel()[fdofs >= 0])
    return LinearSystem(A=A, b=b, free=free, f_loads=loads, gn_loads=gl,
                        f_osc_sq=f_osc_sq, gn_osc_sq=gn_osc_sq)


def solve(A: PaddedRows, b, max_iter: int | None = None):
    """Solve an SPD system: dense Cholesky below 200 unknowns, Jacobi-PCG above.

    ``A`` is a ``PaddedRows`` matrix, as ``assemble`` builds it. Returns
    ``(x, iterations, relative_residual)``. PCG has two targets for
    r = b - A x, as a constrained vertex patch is solvable only up to the
    residual at its vertex: ||r|| <= SOLVE_TOL ||b||, which the PCG recurrence
    can miss as it drifts on slivers, and |r_i| <= ENTRY_TOL (|b| + |A| |x|)_i
    in every row, which a small norm can miss on the low side of a kappa jump.
    While one is missed, PCG solves for the correction with what is left of
    max_iter, and only as deep as the iterate misses: until ||r|| has fallen
    by twice the worse ratio of residual to target. The corrections stop when
    one fails to halve that ratio (the better iterate stays) or does not
    converge (the solution so far stands). ``iterations`` counts the PCG steps
    behind x. Raises NoConvergence when the first solve does not converge
    within max_iter (default 10n), UnsolvableProblem when the SPD precheck
    fails or ||b|| overflows, ValueError when A does not have len(b) rows.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if A.cols.shape[1] != n:
        raise ValueError(f"A has {A.cols.shape[1]} rows, b has {n} entries")
    if n == 0:
        return np.zeros(0), 0, 0.0
    rows = np.arange(n)
    # the entries in each row's own column: the diagonal, and the padding's zeros
    diag = np.where(A.cols == rows, A.vals, 0.0).sum(axis=0)
    if np.any(diag <= 0):
        raise UnsolvableProblem("matrix has a nonpositive diagonal entry")
    with np.errstate(over="ignore"):     # an overflow is refused below
        nb = float(np.linalg.norm(b))
    if not math.isfinite(nb):
        raise UnsolvableProblem(f"the norm of the right-hand side is not finite: {nb}")
    if nb == 0.0:
        return np.zeros(n), 0, 0.0
    if n < DENSE_CUTOFF:
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, A.cols), A.vals)
        try:
            L = np.linalg.cholesky(dense)
        except np.linalg.LinAlgError as exc:
            raise UnsolvableProblem(f"dense Cholesky failed: {exc}") from None
        x = np.linalg.solve(L.T, np.linalg.solve(L, b))
        res = float(np.linalg.norm(b - A @ x)) / nb
        return x, 1, res

    if max_iter is None:
        max_iter = 10 * n
    abs_A, inv_diag = PaddedRows(A.cols, np.abs(A.vals)), 1.0 / diag

    def miss(x):
        # the residual and the worse of its two ratios to their targets
        r = b - A @ x
        size = ENTRY_TOL * (abs_A @ np.abs(x) + np.abs(b))
        entry = np.divide(np.abs(r), size, out=np.zeros(n), where=size > 0)
        return r, max(float(np.linalg.norm(r)) / (SOLVE_TOL * nb), float(entry.max()))

    x, iters = _pcg(A, inv_diag, b, max_iter, SOLVE_TOL * nb)
    r, worst = miss(x)
    while worst > 1.0:
        try:
            dx, more = _pcg(A, inv_diag, r, max_iter - iters,
                            float(np.linalg.norm(r)) / (2.0 * worst))
        except NoConvergence:
            break   # the solution reached so far stands
        r_new, new = miss(x + dx)
        if new < worst:
            x, iters, r = x + dx, iters + more, r_new
        if new > 0.5 * worst:
            break
        worst = new
    return x, iters, float(np.linalg.norm(r)) / nb


def _pcg(A, inv_diag, b, max_iter: int, target: float):
    """Jacobi-PCG for A x = b from x = 0 until the norm of the recurrence residual
    is at most ``target``; returns ``(x, iterations)``, raises NoConvergence after max_iter.

    ``A`` is anything that multiplies a vector with ``@``."""
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
    raise NoConvergence(f"PCG did not reach the residual {target:.3e} within {max_iter} iterations")


@dataclass(frozen=True)
class FemSolution:
    """Nodal P1 solution with its problem data, data loads and solver diagnostics.

    ``f_loads``/``gn_loads`` are the hat loads of f and g_N, for a Galerkin u_h
    the arrays summed into b. The residuals, the Neumann fluxes and Pi_K f read
    them here, so the patch problems use the loads of the solve.
    ``f_osc_sq``/``gn_osc_sq`` are ||f - Pi_K f||_K^2 and ||g_N - Pi_gamma g_N||_gamma^2
    for those projections, from the same data pass (see ``data_rule_degree``);
    the oscillations weight them. Only the collapsed extensions evaluate
    ``data`` again.
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
    return measure * (values + _row_sum(values)[..., None]) / ((k + 1) * (k + 2))


def _mass_norm_sq(values: np.ndarray, measure, k: int):
    # v^T M v for the P1 mass matrix M of a k-simplex (see _mass_times)
    return measure * (_row_sum(values ** 2) + _row_sum(values) ** 2) / ((k + 1) * (k + 2))


def _mass_inverse_times(values: np.ndarray, measure, k: int):
    # inverse of the P1 mass matrix of a k-simplex: (I + 11^T)^-1 = I - 11^T/(k+2)
    scale = (k + 1) * (k + 2) / measure
    return scale * (values - _row_sum(values)[..., None] / (k + 2))


def project_element_bulk(mesh: Mesh, loads: np.ndarray, elems=slice(None)) -> np.ndarray:
    """Vertex values of Pi_K f on the elements ``elems``, (len(elems), d+1), from the
    (ne, d+1) hat loads of f, ``FemSolution.f_loads``."""
    return _mass_inverse_times(loads[elems], mesh.volumes[elems, None], mesh.dim)
