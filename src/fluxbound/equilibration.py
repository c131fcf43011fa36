"""Robustly equilibrated boundary fluxes.

Every facet carries one affine flux g_K, realized as

    g_K = <du_h/dn_K>  +  sigma_{K,gamma} * sum_m alpha_gamma^m psi_gamma^m,

where the psi_gamma^m are the dual basis of the facet hat functions. Sharing
the coefficients across the two sides with opposite orientation signs makes
g_K + g_K' = 0 identically; on Neumann facets the coefficients are fixed so
that g_K equals the facet projection of the Neumann data.

The free coefficients are determined per mesh vertex: on patch elements with
kappa_K * rho_K <= 1 the residual of u_h against the vertex hat function must
vanish exactly; on the remaining elements the residual against an approximate
minimum-energy extension (a hat collapsing over a layer of width ~ 1/kappa)
is minimized in the least-squares sense, with minimal-norm tie-breaking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleConstraints
from .fem import FemSolution, _mass_inverse_times, _mass_times, data_values
from .geometry import NEUMANN, Mesh, facet_vertices
from .quadrature import rule_for

RANK_TOL = 1e-12        # relative singular value cutoff in the patch solves
CONSTRAINT_TOL = 1e-9   # residual threshold (times local scale) for feasibility

EXTENSION_DEGREE = 2    # quadrature degree for the extension volume terms
EXTENSION_CHUNK = 2 ** 15   # (node, element) pairs of the extension terms evaluated at a time
PATCH_CHUNK = 2 ** 17   # sign-matrix entries of the same-shape patches solved at a time


def facet_average(mesh: Mesh, grad: np.ndarray) -> np.ndarray:
    """Average normal flux of u_h per facet, seen from the plus side.

    Boundary facets use the one-sided convention: average = own flux.
    """
    ep, lp = mesh.facet_elems[:, 0], mesh.facet_local[:, 0]
    g = mesh.bary_grads[ep, lp]
    n_plus = -g / np.linalg.norm(g, axis=1, keepdims=True)
    avg = np.einsum("fd,fd->f", n_plus, grad[ep])
    interior = mesh.facet_elems[:, 1] >= 0
    em = mesh.facet_elems[interior, 1]
    avg[interior] = 0.5 * (avg[interior] + np.einsum("fd,fd->f", n_plus[interior], grad[em]))
    return avg


# ---------------------------------------------------------------------------
# residual functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualData:
    """Per-(element, vertex) residuals entering the patch problems.

    ``D[e, n]`` is the data residual of the test function of local vertex n, from
    the loads the solution carries, with the average flux as boundary term; adding
    sigma-signed alpha coefficients of the non-Neumann facets containing the
    vertex gives the full residual. The test function is the hat function where
    kappa*rho <= 1 and its collapsed extension elsewhere, the rows of the patch
    objectives. ``scale`` tracks the magnitudes for tolerance scaling.
    """

    D: np.ndarray
    scale: np.ndarray
    avg: np.ndarray


def _to_local_vertices(vals: np.ndarray) -> np.ndarray:
    """out[e, i, n]: value at local vertex n of the (ne, d+1, d) facet-vertex data
    ``vals[e, i]`` of facet i (opposite local vertex i), zero on the diagonal.
    The slots of facet i are the local vertices facet_vertices(d)[i]."""
    ne, dp1, d = vals.shape
    out = np.zeros((ne, dp1, dp1))
    out[:, np.arange(dp1)[:, None], facet_vertices(d)] = vals
    return out


def residual_functionals(mesh: Mesh, sol: FemSolution) -> ResidualData:
    d = mesh.dim
    avg = facet_average(mesh, sol.grad)

    F1 = sol.f_loads
    uloc = sol.u[mesh.simplices]
    b_stiff = np.einsum("ed,end->en", sol.grad, mesh.bary_grads) * mesh.volumes[:, None]
    b_mass = mesh.kappa[:, None] ** 2 * _mass_times(uloc, mesh.volumes[:, None], d)

    fids = mesh.elem_facets
    tags = mesh.facet_tag[fids]                       # (ne, d+1)
    neu = mesh.neumann
    Fg = np.zeros((mesh.n_elements, d + 1))           # the Neumann loads at the element vertices
    elems, local = mesh.facet_elems[neu, 0], mesh.facet_local[neu, 0]
    for i, fv in enumerate(facet_vertices(d)):        # an element has one local facet i
        on = local == i
        Fg[elems[on, None], fv] += sol.gn_loads[on]

    per_facet = np.where(tags != NEUMANN,
                         mesh.elem_sigma * avg[fids] * mesh.facet_measures[fids] / d, 0.0)
    avgterm = per_facet.sum(axis=1, keepdims=True) - per_facet

    D = F1 + Fg - b_stiff - b_mass + avgterm
    scale = (np.abs(F1) + np.abs(Fg) + np.abs(b_stiff) + np.abs(b_mass)
             + np.abs(per_facet).sum(axis=1, keepdims=True))

    sel = np.flatnonzero(mesh.layer)
    if len(sel):
        # theta* = theta_n on dK and u_h is affine, so int grad u_h . grad theta*
        # = int_dK du_h/dn theta* = int grad u_h . grad theta_n = b_stiff
        D[sel] = (_extension_volume_terms(mesh, sol, sel) - b_stiff[sel]
                  + Fg[sel] + avgterm[sel])
    return ResidualData(D=D, scale=scale, avg=avg)


@lru_cache(maxsize=None)
def _extension_tables(d: int):
    """Node tables of the collapsed extensions, the same for every element.

    The extension theta* of vertex n is the hat of n on each sub-simplex
    S_i(n) = conv(facet i, x_P), i != n, with x_P at the element barycentrics
    delta 1 + (1 - (d+1) delta) e_n. Node q of the EXTENSION_DEGREE rule, nu
    on S_i(n) (the facet vertices facet_vertices(d)[i], then x_P), sits at the
    element barycentrics A + delta B. Over the Q = d(d+1) nq nodes of all
    (n, i != n) in order, returns ``(AB, hat)``: AB = [A B] (Q, 2(d+1)), so
    that the nodes of an element are AB @ [x_K; delta x_K], and hat
    (d+1, d, nq) the value nu_q[slot of n] of theta* at node q of the d
    sub-simplices of n. Read-only.
    """
    nu = rule_for(d, EXTENSION_DEGREE).points
    others = facet_vertices(d)
    AB, hat = [], []
    for n in range(d + 1):
        for i in range(d + 1):
            if i == n:
                continue   # theta* vanishes on the sub-simplex opposite its vertex
            ab = np.zeros((len(nu), 2, d + 1))
            ab[:, 0, others[i]] = nu[:, :d]
            ab[:, 0, n] += nu[:, d]
            ab[:, 1] = nu[:, d:]
            ab[:, 1, n] -= (d + 1) * nu[:, d]
            AB.append(ab.reshape(len(nu), -1))
            hat.append(nu[:, list(others[i]).index(n)])
    tables = np.concatenate(AB), np.reshape(hat, (d + 1, d, len(nu)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _extension_volume_terms(mesh: Mesh, sol: FemSolution, sel: np.ndarray) -> np.ndarray:
    """int_K f theta* - kappa^2 int_K u_h theta* for the collapsed extensions, per vertex.

    Every sub-simplex S_i(n), i != n, has the measure delta |K|, delta =
    1/(d kappa rho). The f part is quadrature: the nodes of all sub-simplices
    are the points (A + delta B) x_K of ``_extension_tables``, built for a
    block of elements by one matrix product with the stacked tables [A B],
    and f is called once per block of at most EXTENSION_CHUNK (node, element)
    pairs. The kappa^2 part is exact, the P1 mass product on each S_i(n).

    Where u_h = f / kappa^2 the two parts cancel and the result is
    round-off, which decides between the round-off-level indicators of the
    two reconstructions. So the sums keep the order of the sub-simplex route:
    per S_i(n) over the rule's nodes, then f part minus kappa^2 part, then over
    i; with f constant the result equals that route's bit for bit. The
    stiffness part of B_K(u_h, theta*) equals that of the plain hat and is
    left to the caller.
    """
    d = mesh.dim
    AB, hat = _extension_tables(d)
    rule = rule_for(d, EXTENSION_DEGREE)
    nodes = len(AB)
    delta = 1.0 / (d * mesh.kappa[sel] * mesh.inradii[sel])  # kappa*rho > 1 on sel
    svol = delta * mesh.volumes[sel]   # |S_i| = lambda_i(x_P) |K| for every i != n
    scale = svol * math.factorial(d)
    verts = np.take(mesh.points, mesh.simplices[sel].T, axis=0)     # (d+1, k, d)
    ft = np.empty((d + 1, d, len(sel)))   # int f theta* on S_i(n), the i != n in order
    size = max(1, EXTENSION_CHUNK // nodes)
    for lo in range(0, len(sel), size):
        hi = min(lo + size, len(sel))
        P = np.empty((2, d + 1, hi - lo, d))        # [x_K; delta x_K]
        P[0] = verts[:, lo:hi]
        np.multiply(P[0], delta[lo:hi, None], out=P[1])
        x = AB @ P.reshape(2 * (d + 1), -1)
        vals = data_values(sol.data.f, x.reshape(-1, d), "f")
        terms = vals.reshape(d + 1, d, rule.n_points, hi - lo) * hat[..., None]
        terms *= rule.weights[:, None]
        ft[:, :, lo:hi] = terms.sum(axis=2) * scale[lo:hi]   # node by node, in order

    uloc = sol.u[mesh.simplices[sel]]
    k2 = mesh.kappa[sel] ** 2
    out = np.zeros((len(sel), d + 1))
    others = facet_vertices(d)
    for n in range(d + 1):
        coeff = np.full((len(sel), d + 1), delta[:, None])
        coeff[:, n] = 1.0 - d * delta
        u_p = np.einsum("kj,kj->k", coeff, uloc)
        for f_i, i in zip(ft[n], [i for i in range(d + 1) if i != n]):
            su = np.concatenate([uloc[:, others[i]], u_p[:, None]], axis=1)
            mass = k2 * _mass_times(su, svol[:, None], d)[:, n - (n > i)]   # n's slot
            out[:, n] += f_i - mass
    return out


# ---------------------------------------------------------------------------
# patch solves and assembly
# ---------------------------------------------------------------------------

def _pinv(A: np.ndarray, floor=0.0) -> np.ndarray:
    """Stacked minimal-norm pseudo-inverses of A (..., m, n), rank cutoff floored at `floor`.

    The floor matters in the reduced problem E N: when an objective row lies in
    the constraint row space, E N is pure round-off noise and a cutoff relative
    to its own largest singular value would happily invert it, producing a huge
    coefficient vector that wrecks the constraints.
    """
    if A.size == 0:
        return np.zeros(A.shape[:-2] + A.shape[:-3:-1])
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = RANK_TOL * np.maximum(s[..., 0], floor)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff[..., None])
    return np.matmul(vt.swapaxes(-1, -2) * inv[..., None, :], u.swapaxes(-1, -2))


def _patch_maps(M: np.ndarray, nc: int):
    """Linear solution maps of the patch systems M (n, k, nu), constrained rows first.

    With c the first nc and e the other right-hand side entries, the min-norm
    solution of min |E a - e| subject to C a = c is ``L @ [c; e]`` and its
    constraint-only part alpha0 is ``P @ c``: alpha0 = C^+ c, then the objective
    is fitted in the nullspace of C through its projector N = I - C^+ C,
    alpha = alpha0 + (E N)^+ (e - E alpha0). For any orthonormal nullspace basis
    Z, Z (E Z)^+ = (E N)^+, and E N has the singular values of E Z.
    """
    k = M.shape[1]
    C, E = M[:, :nc], M[:, nc:]
    P = _pinv(C)
    if k == nc:
        return P, P
    N = np.eye(M.shape[2]) - P @ C
    Q = _pinv(E @ N, floor=np.linalg.norm(E, 2, axis=(1, 2)))
    return np.concatenate([P - Q @ E @ P, Q], axis=2), P


def _raise_worst(bad, vals, tol, verts, message: str):
    """InfeasibleConstraints naming the vertex with the largest vals/tol among the bad ones.

    Build ``bad`` as ~(vals <= tol), so that a NaN is bad; argmax picks a NaN first."""
    if bad.any():
        j = np.flatnonzero(bad)[np.argmax(vals[bad] / tol[bad])]
        raise InfeasibleConstraints(message.format(v=verts[j], res=vals[j], tol=tol[j]))


def _sign_matrices(mesh: Mesh, els: np.ndarray, unknown: np.ndarray) -> np.ndarray:
    """(n, k, nu) int8 +-1 patterns: M[p, r, j] is the orientation sign of element
    els[p, r] on facet unknown[p, j], zero where the element lacks that facet.

    Each row of `unknown` ascends by facet id, so the keys p * n_facets + facet
    are sorted over the whole array, and one search places every facet of every
    patch element; an element has a facet at most once, so a hit is one entry.
    """
    n, k = els.shape
    nu = unknown.shape[1]
    patch = np.arange(n)[:, None, None]
    keys = (patch[:, 0] * mesh.n_facets + unknown).ravel()
    query = patch * mesh.n_facets + mesh.elem_facets[els]          # (n, k, d+1)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    hit = keys[pos] == query
    flat = (patch * k + np.arange(k)[:, None]) * nu + pos - patch * nu
    M = np.zeros((n, k, nu), dtype=np.int8)
    M.ravel()[flat[hit]] = mesh.elem_sigma[els][hit]
    return M


def _solve_patch_chunk(mesh: Mesh, resid: ResidualData, verts, unknown, k: int, nc: int):
    """Solve the patches of `verts`, all with k elements, nc of them constrained, and
    the (n, nu) non-Neumann facets `unknown`; returns (alpha (n, nu), objective, residual)."""
    nu = unknown.shape[1]
    pos = mesh._vertex_elem_offsets[verts][:, None] + np.arange(k)
    els, locs = mesh._vertex_elem_data[pos, 0], mesh._vertex_elem_data[pos, 1]
    order = np.argsort(mesh.layer[els], axis=1, kind="stable")
    els, locs = np.take_along_axis(els, order, 1), np.take_along_axis(locs, order, 1)

    rhs = -resid.D[els, locs]
    tol = CONSTRAINT_TOL * np.maximum(resid.scale[els, locs].max(axis=1), 1e-300)
    if nu == 0:
        res = np.abs(rhs[:, :nc]).max(axis=1, initial=0.0)
        _raise_worst(~(res <= tol), res, tol, verts,
                     "vertex {v}: constraint residual {res:.3e} with no free coefficients")
        return np.zeros((len(verts), 0)), np.zeros(len(verts)), res

    M = _sign_matrices(mesh, els, unknown)
    # patches with byte-identical sign matrices share one factorization
    keys = M.reshape(len(M), -1).view(np.dtype((np.void, k * nu)))[:, 0]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    L, P = _patch_maps(M[first].astype(float), nc)
    alpha = np.einsum("nik,nk->ni", L[which], rhs)
    fit = np.einsum("nki,ni->nk", M, alpha) - rhs
    res = np.abs(fit[:, :nc]).max(axis=1, initial=0.0)
    if nc:
        res0 = res
        if k > nc:   # the constraints alone, before the objective step
            c = rhs[:, :nc]
            alpha0 = np.einsum("nic,nc->ni", P[which], c)
            res0 = np.abs(np.einsum("nci,ni->nc", M[:, :nc], alpha0) - c).max(axis=1)
        _raise_worst(~(res0 <= tol), res0, tol, verts,
                     "vertex {v}: equality-constraint residual {res:.3e} exceeds {tol:.3e}")
        _raise_worst(~(res <= tol), res, tol, verts,
                     "vertex {v}: constraints degraded to {res:.3e} by the objective step")
    return alpha, (fit[:, nc:] ** 2).sum(axis=1), res


def _solve_patches(mesh: Mesh, resid: ResidualData, vertices):
    """Coefficients of the non-Neumann facets around each of `vertices`.

    Patches are grouped by shape (elements, unknowns, constrained elements) and
    solved in chunks of at most PATCH_CHUNK sign-matrix entries. Returns
    ``(alphas, info)``: alphas (nf, d) holds the coefficients by facet and
    facet vertex (zero where no patch of `vertices` sets one), and info
    (len(vertices), 4) the number of constraints, the number of unknowns, the
    objective and the constraint residual of each patch. Raises
    InfeasibleConstraints when the equality constraints of a patch cannot be met.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    vfd = mesh._vertex_facet_data
    free = np.flatnonzero(mesh.facet_tag[vfd[:, 0]] != NEUMANN)
    nu_all = np.bincount(mesh.facets[mesh.facet_tag != NEUMANN].ravel(),
                         minlength=mesh.n_points)
    first = np.concatenate([[0], np.cumsum(nu_all)])[vertices]
    k = np.diff(mesh._vertex_elem_offsets)[vertices]
    nu = nu_all[vertices]
    nc = np.bincount(mesh.simplices[~mesh.layer].ravel(),
                     minlength=mesh.n_points)[vertices]
    alphas = np.zeros((mesh.n_facets, mesh.dim))
    info = np.zeros((len(vertices), 4))
    info[:, 0], info[:, 1] = nc, nu

    # one integer key per (k, nu, nc) shape; a stable sort keeps each group ascending
    shape = (k * (nu.max() + 1) + nu) * (nc.max() + 1) + nc
    order = np.argsort(shape, kind="stable")
    starts = np.unique(shape[order], return_index=True)[1]
    for members in np.split(order, starts[1:]):
        kg, nug, ncg = k[members[0]], nu[members[0]], nc[members[0]]
        if kg == 0:
            continue
        size = max(1, PATCH_CHUNK // max(kg * nug, 1))
        for lo in range(0, len(members), size):
            j = members[lo:lo + size]
            rows = vfd[free[first[j][:, None] + np.arange(nug)]]   # (n, nu, 2): facet, slot
            a, info[j, 2], info[j, 3] = _solve_patch_chunk(mesh, resid, vertices[j],
                                                           rows[..., 0], kg, ncg)
            alphas[rows[..., 0], rows[..., 1]] = a
    return alphas, info


def solve_vertex_patch(mesh: Mesh, v: int, resid: ResidualData):
    """Coefficients for the non-Neumann facets containing vertex v (a batch of one).

    Returns ``(facet_ids, alphas, info)``; info is (n_constraints, n_unknowns,
    objective, constraint residual). Raises InfeasibleConstraints when the
    equality constraints cannot be met.
    """
    alphas, info = _solve_patches(mesh, resid, [v])
    fids, slots = np.nonzero(mesh.facets == v)
    free = mesh.facet_tag[fids] != NEUMANN
    nc, nu, obj, res = info[0]
    fids, slots = fids[free], slots[free]
    return fids, alphas[fids, slots], (int(nc), int(nu), float(obj), float(res))


@dataclass(frozen=True)
class BoundaryFluxSet:
    """Solved facet fluxes; ``gplus`` holds g_K of the plus side in canonical order."""

    gplus: np.ndarray       # (nf, d) facet-vertex values seen from the plus side
    alphas: np.ndarray      # (nf, d) coefficients (fixed on Neumann facets)
    avg: np.ndarray         # (nf,) plus-side average normal flux
    eps_max_rel: float      # worst scaled equality residual over constrained elements


def equilibration_residuals(mesh: Mesh, resid: ResidualData, alphas: np.ndarray,
                            elems=slice(None)):
    """Assembled residuals eps[e, n] = D[e, n] + sum sigma * alpha over the vertex's facets.

    Rows of the elements ``elems`` only (all by default); a row does not depend
    on the others.
    """
    fids = mesh.elem_facets[elems]
    sigma = np.where(mesh.facet_tag[fids] != NEUMANN, mesh.elem_sigma[elems], 0)
    total = np.zeros(fids.shape)        # over the local facets i in order, as a sum over i
    for i, fv in enumerate(facet_vertices(mesh.dim)):
        total[:, fv] += sigma[:, i, None] * alphas[fids[:, i]]
    return resid.D[elems] + total


def _patch_scales(mesh: Mesh, resid: ResidualData) -> np.ndarray:
    """(n_points,) largest ``resid.scale`` over the entries of each vertex patch,
    the scale its patch solve is checked against (zero for a vertex of no element)."""
    offsets, data = mesh._vertex_elem_offsets, mesh._vertex_elem_data
    vals = np.append(resid.scale[data[:, 0], data[:, 1]], 0.0)   # scales are >= 0
    out = np.maximum.reduceat(vals, offsets[:-1])
    out[offsets[:-1] == offsets[1:]] = 0.0
    return out


def equilibrate(mesh: Mesh, sol: FemSolution, *,
                patch_report_path: str | None = None) -> BoundaryFluxSet:
    """Solve all vertex-patch problems and assemble the boundary fluxes.

    Postcondition (audited): on every element with kappa*rho <= 1 the assembled
    residuals vanish to 1e-9 relative to the data scale of their vertex patch,
    the scale its patch solve met the constraints at; this is the exact
    equilibration property against affine functions. Only those rows are
    assembled.
    """
    d = mesh.dim
    resid = residual_functionals(mesh, sol)
    alphas, info = _solve_patches(mesh, resid, np.arange(mesh.n_points))

    neu = mesh.neumann
    alphas[neu] = sol.gn_loads - resid.avg[neu, None] * (mesh.facet_measures[neu] / d)[:, None]
    gplus = resid.avg[:, None] + _mass_inverse_times(alphas, mesh.facet_measures[:, None], d - 1)
    gplus[neu] = _mass_inverse_times(sol.gn_loads, mesh.facet_measures[neu, None], d - 1)

    constrained = np.flatnonzero(~mesh.layer)
    eps = equilibration_residuals(mesh, resid, alphas, constrained)
    scale = _patch_scales(mesh, resid)[mesh.simplices[constrained]]
    rel = np.abs(eps) / np.maximum(scale, 1e-300)
    eps_max_rel = float(rel.max()) if rel.size else 0.0
    if not eps_max_rel <= CONSTRAINT_TOL:     # a NaN fails too
        raise InfeasibleConstraints(
            f"assembled equilibration residual {eps_max_rel:.3e} exceeds {CONSTRAINT_TOL:g}")

    if patch_report_path:
        np.savetxt(patch_report_path, np.column_stack([np.arange(mesh.n_points), info]),
                   fmt="%d,%d,%d,%.6e,%.6e", comments="",
                   header="vertex,n_constraints,n_unknowns,objective,constraint_residual")

    return BoundaryFluxSet(gplus=gplus, alphas=alphas, avg=resid.avg,
                           eps_max_rel=eps_max_rel)
