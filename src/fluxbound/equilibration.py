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

The patch problems are solved in stacks of same-shape patches. A patch's
unknowns are the free facets of its vertex in ascending order; a table of
each free (facet, slot)'s position among them, filled from
``Mesh._vertex_facet_data``, turns the +-1 sign matrices and their products
into gathers, and each distinct sign matrix is factored once per call. The
collapsed-extension terms of the layer rows form the mass product of each
sub-simplex only in the slot they keep, and call f on at most
``fem.DATA_CHUNK`` points at a time. As throughout the package, rows are
gathered with ``np.take`` and short rows are summed entry after entry (see
``geometry``), which numpy serves several times faster than fancy indexing
and short-axis reductions, with the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fem
from .errors import InfeasibleConstraints
from .fem import FemSolution, _mass_inverse_times, _mass_times, data_values, element_blocks
from .geometry import NEUMANN, Mesh, _row_max, _row_sum, facet_vertices
from .quadrature import rule_for

RANK_TOL = 1e-12        # relative singular value cutoff in the patch solves
CONSTRAINT_TOL = 1e-9   # residual threshold (times local scale) for feasibility

EXTENSION_DEGREE = 2    # quadrature degree for the extension volume terms
PATCH_CHUNK = 2 ** 17   # sign-matrix entries of the same-shape patches solved at a time


def facet_average(mesh: Mesh, grad: np.ndarray) -> np.ndarray:
    """Average normal flux of u_h per facet, seen from the plus side.

    Boundary facets use the one-sided convention: average = own flux.
    """
    d = mesh.dim
    ep = mesh.facet_elems[:, 0]
    g = np.take(mesh.bary_grads.reshape(-1, d), ep * (d + 1) + mesh.facet_local[:, 0], axis=0)
    n_plus = -g / np.sqrt(_row_sum(g * g))[:, None]
    avg = np.einsum("fd,fd->f", n_plus, np.take(grad, ep, axis=0))
    interior = np.flatnonzero(mesh.facet_elems[:, 1] >= 0)
    em = np.take(mesh.facet_elems[:, 1], interior)
    avg[interior] = 0.5 * (avg[interior] + np.einsum(
        "fd,fd->f", np.take(n_plus, interior, axis=0), np.take(grad, em, axis=0)))
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
    """The residuals D and their scales, ELEMENT_CHUNK elements at a time.

    The extension terms of the layer rows come first, from one call of
    ``_extension_volume_terms`` on the layer elements alone, so that D does
    not depend on ELEMENT_CHUNK; they wait in D until their element block
    adds the plain-hat terms.
    """
    d = mesh.dim
    avg = facet_average(mesh, sol.grad)
    neu = mesh.neumann
    D, scale = np.zeros((mesh.n_elements, d + 1)), np.empty((mesh.n_elements, d + 1))
    layer = np.flatnonzero(mesh.layer)
    D[layer] = _extension_volume_terms(mesh, sol, layer)
    for blk in element_blocks(mesh.n_elements):
        F1 = sol.f_loads[blk]
        volumes = mesh.volumes[blk, None]
        b_stiff = np.einsum("ed,end->en", sol.grad[blk], mesh.bary_grads[blk]) * volumes
        b_mass = mesh.kappa[blk, None] ** 2 * _mass_times(sol.u[mesh.simplices[blk]], volumes, d)
        fids = mesh.elem_facets[blk]
        on_neu = mesh.facet_tag[fids] == NEUMANN       # (nb, d+1)
        Fg = np.zeros(fids.shape)                      # the Neumann loads at the element vertices
        for i, fv in enumerate(facet_vertices(d)):     # an element has one local facet i
            on = np.flatnonzero(on_neu[:, i])
            Fg[on[:, None], fv] += np.take(sol.gn_loads, np.searchsorted(neu, fids[on, i]), axis=0)
        per_facet = np.where(~on_neu,
                             mesh.elem_sigma[blk] * avg[fids] * mesh.facet_measures[fids] / d, 0.0)
        avgterm = _row_sum(per_facet)[:, None] - per_facet
        plain = F1 + Fg - b_stiff - b_mass + avgterm
        # theta* = theta_n on dK and u_h is affine, so int grad u_h . grad theta*
        # = int_dK du_h/dn theta* = int grad u_h . grad theta_n = b_stiff
        D[blk] = np.where(mesh.layer[blk, None], D[blk] - b_stiff + Fg + avgterm, plain)
        scale[blk] = (np.abs(F1) + np.abs(Fg) + np.abs(b_stiff) + np.abs(b_mass)
                      + _row_sum(np.abs(per_facet))[:, None])
    return ResidualData(D=D, scale=scale, avg=avg)


@lru_cache(maxsize=None)
def _extension_tables(d: int):
    """Node tables of the collapsed extensions, the same for every element.

    The extension theta* of vertex n is the hat of n on each sub-simplex
    S_i(n) = conv(facet i, x_P), i != n, with x_P at the element barycentrics
    delta 1 + (1 - (d+1) delta) e_n. Node q of the EXTENSION_DEGREE rule, nu
    on S_i(n) (the facet vertices facet_vertices(d)[i], then x_P), sits at the
    element barycentrics A + delta B. Over the Q = d(d+1) nq nodes of all
    (n, i != n) in order, returns ``(AB, hat, pairs)``: AB = [A B]
    (Q, 2(d+1)), so that the nodes of an element are AB @ [x_K; delta x_K],
    hat (d+1, d, nq) the value nu_q[slot of n] of theta* at node q of the d
    sub-simplices of n, and pairs (d+1, d) their facets i. Read-only.
    """
    nu = rule_for(d, EXTENSION_DEGREE).points
    others = facet_vertices(d)
    AB, hat, pairs = [], [], []
    for n in range(d + 1):
        for i in range(d + 1):
            if i == n:
                continue   # theta* vanishes on the sub-simplex opposite its vertex
            pairs.append(i)
            ab = np.zeros((len(nu), 2, d + 1))
            ab[:, 0, others[i]] = nu[:, :d]
            ab[:, 0, n] += nu[:, d]
            ab[:, 1] = nu[:, d:]
            ab[:, 1, n] -= (d + 1) * nu[:, d]
            AB.append(ab.reshape(len(nu), -1))
            hat.append(nu[:, list(others[i]).index(n)])
    tables = (np.concatenate(AB), np.reshape(hat, (d + 1, d, len(nu))),
              np.reshape(pairs, (d + 1, d)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _extension_volume_terms(mesh: Mesh, sol: FemSolution, sel: np.ndarray) -> np.ndarray:
    """int_K f theta* - kappa^2 int_K u_h theta* for the collapsed extensions, per vertex.

    Every sub-simplex S_i(n), i != n, has the measure delta |K|, delta =
    1/(d kappa rho). The f part is quadrature: the nodes of all sub-simplices
    are the points (A + delta B) x_K of ``_extension_tables``, built for a
    block of elements by one matrix product with the stacked tables [A B];
    f is called once per block of at most fem.DATA_CHUNK points (one
    element's at least). The kappa^2 part is exact, the P1 mass product on
    each S_i(n), formed only in the slot of n. Every array but the result
    holds one block.

    Where u_h = f / kappa^2 the two parts cancel and the result is
    round-off, which decides between the round-off-level indicators of the
    two reconstructions. So the sums keep the order of the sub-simplex route:
    per S_i(n) over the rule's nodes, then f part minus kappa^2 part, then over
    i; with f constant the result equals that route's bit for bit (the d+1
    vertex values of u_h on S_i(n) are summed in order, as numpy sums up to
    seven values). The stiffness part of B_K(u_h, theta*) equals that of the plain hat and is
    left to the caller.
    """
    d = mesh.dim
    AB, hat, pairs = _extension_tables(d)
    rule = rule_for(d, EXTENSION_DEGREE)
    others = facet_vertices(d)
    out = np.zeros((len(sel), d + 1))
    size = max(1, fem.DATA_CHUNK // len(AB))
    for lo in range(0, len(sel), size):
        rows = sel[lo:lo + size]
        delta = 1.0 / (d * mesh.kappa[rows] * mesh.inradii[rows])  # kappa*rho > 1 on sel
        svol = delta * mesh.volumes[rows]   # |S_i| = lambda_i(x_P) |K| for every i != n
        P = np.empty((2, d + 1, len(rows), d))        # [x_K; delta x_K]
        verts = np.take(mesh.simplices, rows, axis=0)
        np.take(mesh.points, verts.T, axis=0, out=P[0])
        np.multiply(P[0], delta[:, None], out=P[1])
        x = AB @ P.reshape(2 * (d + 1), -1)
        vals = data_values(sol.data.f, x.reshape(-1, d), "f")
        terms = vals.reshape(d + 1, d, rule.n_points, len(rows)) * hat[..., None]
        terms *= rule.weights[:, None]
        # int f theta* on S_i(n), the i != n in order, node by node
        ft = terms.sum(axis=2) * (svol * math.factorial(d))
        uloc = np.take(sol.u, verts)

        # the P1 mass product on S_i(n) in n's slot, |S_i| (u_n + s) / ((d+1)(d+2)),
        # s the sum of u_h at the vertices of S_i(n) in order: those of facet i
        # (u_fac, one sum per i), then x_P (u_p, one value per n)
        u = uloc.T
        u_fac = u[others[:, 0]]
        for j in range(1, d):
            u_fac = u_fac + u[others[:, j]]
        u_p = np.empty((d + 1, len(rows)))
        for n in range(d + 1):
            coeff = np.full((len(rows), d + 1), delta[:, None])
            coeff[:, n] = 1.0 - d * delta
            u_p[n] = np.einsum("kj,kj->k", coeff, uloc)
        mass = svol * (u[:, None] + (u_fac[pairs] + u_p[:, None]))
        terms = ft - mesh.kappa[rows] ** 2 * (mass / ((d + 1) * (d + 2)))
        block = np.zeros((d + 1, len(rows)))
        for i in range(d):      # over the i != n in order
            block += terms[:, i]
        out[lo:lo + size] = block.T
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


@lru_cache(maxsize=None)
def _slot_table(d: int) -> np.ndarray:
    """(d+1, d+1) table: [l, i] is the slot of local vertex l in local facet i,
    l - (l > i), and d on the diagonal, where the facet lacks the vertex. Read-only."""
    l, i = np.indices((d + 1, d + 1))
    table = np.where(l == i, d, l - (l > i))
    table.setflags(write=False)
    return table


def _sign_matrices(mesh: Mesh, els: np.ndarray, locs: np.ndarray, column: np.ndarray,
                   nu: int):
    """+-1 patterns of the patches with elements els (n, k), whose vertex is their
    local vertex locs, and the column of each element facet in its patch.

    ``column`` is ``_solve_patches``' (nf, d+1) table, raveled: 1 + the position
    of each (facet, slot) among the nu free facets of its vertex, 0 for a
    Neumann facet and in column d. A gather through ``_slot_table`` gives cols
    (n, k, d+1), the column of local facet i of each patch element, 0 where the
    facet is Neumann or lacks the vertex; no facet is searched for. Returns
    ``(M, cols)``: M (n, k, 1 + nu) int8, M[p, r, 1 + j] the orientation sign of
    element els[p, r] on unknown j of its patch and zero where the element
    lacks that facet; column 0, where the facets without a column land, is
    cleared.
    """
    n, k = els.shape
    cols = np.take(column, np.take(mesh.elem_facets, els, axis=0) * (mesh.dim + 1)
                   + np.take(_slot_table(mesh.dim), locs, axis=0))
    M = np.zeros((n, k, 1 + nu), dtype=np.int8)
    M.ravel()[(np.arange(n * k) * (1 + nu)).reshape(n, k, 1) + cols] = np.take(
        mesh.elem_sigma, els, axis=0)
    M[..., 0] = 0
    return M, cols


def _times_signs(signs: np.ndarray, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i signs[p, r, i] x[p, cols[p, r, i] - 1], column 0 reading zero: the
    product of each sign matrix with x (n, nu) from its at most d nonzeros per row,
    over the local facets in order."""
    n, nu = x.shape
    padded = np.zeros((n, 1 + nu))
    padded[:, 1:] = x
    return _row_sum(signs * np.take(padded, (np.arange(n) * (1 + nu))[:, None, None] + cols))


def _solve_patch_chunk(mesh: Mesh, resid: ResidualData, verts, column, k: int, nc: int,
                       nu: int, maps: dict):
    """Solve the patches of `verts`, all with k elements, nc of them constrained, and
    nu free facets; returns (alpha (n, nu), objective, residual, scale), as
    ``_solve_patches`` defines them. ``maps`` holds the solution maps of the sign
    matrices factored so far, by their bytes, and gains those of this chunk."""
    ev = np.take(mesh._vertex_elem_data,
                 mesh._vertex_elem_offsets[verts][:, None] + np.arange(k), axis=0)
    els, locs = ev[..., 0], ev[..., 1]
    if 0 < nc < k:      # constrained elements first
        order = np.argsort(mesh.layer[els], axis=1, kind="stable")
        els, locs = np.take_along_axis(els, order, 1), np.take_along_axis(locs, order, 1)

    entry = els * (mesh.dim + 1) + locs
    rhs = -np.take(resid.D, entry)
    scale = _row_max(np.take(resid.scale, entry))
    tol = CONSTRAINT_TOL * np.maximum(scale, 1e-300)
    if nu == 0:
        res = np.abs(rhs[:, :nc]).max(axis=1, initial=0.0)
        _raise_worst(~(res <= tol), res, tol, verts,
                     "vertex {v}: constraint residual {res:.3e} with no free coefficients")
        return np.zeros((len(verts), 0)), np.zeros(len(verts)), res, scale

    M, cols = _sign_matrices(mesh, els, locs, column, nu)
    # patches with byte-identical sign matrices share one factorization; a chunk
    # of one matrix (every interior chunk of a Kuhn mesh) needs no sort
    if (M == M[0]).all():
        first, which = np.zeros(1, dtype=np.intp), np.zeros(len(M), dtype=np.intp)
    else:
        keys = M.reshape(len(M), -1).view(np.dtype((np.void, M[0].size)))[:, 0]
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [M[j].tobytes() for j in first]
    new = [j for j, key in enumerate(distinct) if key not in maps]
    if new:
        L, P = _patch_maps(M[first[new], :, 1:].astype(float), nc)
        maps.update(zip((distinct[j] for j in new), zip(L, P)))
    alpha = np.einsum("nik,nk->ni", np.stack([maps[key][0] for key in distinct])[which], rhs)

    signs = np.take(mesh.elem_sigma, els, axis=0)
    fit = _times_signs(signs, cols, alpha) - rhs
    res = np.abs(fit[:, :nc]).max(axis=1, initial=0.0)
    if nc:
        res0 = res
        if k > nc:   # the constraints alone, before the objective step
            c = rhs[:, :nc]
            P = np.stack([maps[key][1] for key in distinct])[which]
            alpha0 = np.einsum("nic,nc->ni", P, c)
            res0 = _row_max(np.abs(_times_signs(signs[:, :nc], cols[:, :nc], alpha0) - c))
        _raise_worst(~(res0 <= tol), res0, tol, verts,
                     "vertex {v}: equality-constraint residual {res:.3e} exceeds {tol:.3e}")
        _raise_worst(~(res <= tol), res, tol, verts,
                     "vertex {v}: constraints degraded to {res:.3e} by the objective step")
    return alpha, (fit[:, nc:] ** 2).sum(axis=1), res, scale


def _solve_patches(mesh: Mesh, resid: ResidualData, vertices):
    """Coefficients of the non-Neumann facets around each of `vertices`.

    The unknowns of a vertex are its free facets in ascending order, the run
    of ``Mesh._vertex_facet_data`` that ``_vertex_facet_offsets`` delimits.
    Patches are grouped by shape (elements, unknowns, constrained elements)
    and solved in chunks of at most PATCH_CHUNK sign-matrix entries. Before a
    chunk is solved, one table of this call receives the position of each
    (facet, slot) of its vertices among their unknowns, so that the chunk's
    sign matrices and their products are gathers (``_sign_matrices``). Each
    distinct sign matrix of a group is factored once per call, in the first
    chunk that holds it, and its maps are kept in a dict of the group, keyed
    by its bytes. Returns
    ``(alphas, info, scale)``: alphas (nf, d) holds the coefficients by facet
    and facet vertex (zero where no patch of `vertices` sets one), info
    (len(vertices), 4) the number of constraints, the number of unknowns, the
    objective and the constraint residual of each patch, and scale the largest
    ``resid.scale`` of each patch, which its constraints are checked against
    (zero for a vertex of no element). Raises
    InfeasibleConstraints when the equality constraints of a patch cannot be met.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    d = mesh.dim
    first = np.take(mesh._vertex_facet_offsets, vertices)
    nu = np.take(mesh._vertex_facet_offsets, vertices + 1) - first
    k = np.diff(mesh._vertex_elem_offsets)[vertices]
    nc = np.bincount(mesh.simplices[~mesh.layer].ravel(),
                     minlength=mesh.n_points)[vertices]
    # 1 + the position of each (facet, slot) among the free facets of its vertex, set
    # for the vertices of a chunk before it is solved; 0 for Neumann facets and column d
    column = np.zeros(mesh.n_facets * (d + 1), dtype=np.int32)
    alphas = np.zeros((mesh.n_facets, d))
    info, scale = np.zeros((len(vertices), 4)), np.zeros(len(vertices))
    info[:, 0], info[:, 1] = nc, nu

    # one integer key per (k, nu, nc) shape; a stable sort keeps each group ascending
    shape = (k * (nu.max() + 1) + nu) * (nc.max() + 1) + nc
    order = np.argsort(shape, kind="stable")
    starts = np.unique(shape[order], return_index=True)[1]
    for members in np.split(order, starts[1:]):
        kg, nug, ncg = k[members[0]], nu[members[0]], nc[members[0]]
        if kg == 0:
            continue
        maps = {}
        size = max(1, PATCH_CHUNK // max(kg * nug, 1))
        for lo in range(0, len(members), size):
            j = members[lo:lo + size]
            facet, slot = np.take(mesh._vertex_facet_data, first[j][:, None] + np.arange(nug),
                                  axis=0).T
            column[facet * (d + 1) + slot] = np.arange(1, nug + 1)[:, None]
            a, info[j, 2], info[j, 3], scale[j] = _solve_patch_chunk(
                mesh, resid, vertices[j], column, kg, ncg, nug, maps)
            alphas.ravel()[facet * d + slot] = a.T
    return alphas, info, scale


def solve_vertex_patch(mesh: Mesh, v: int, resid: ResidualData):
    """Coefficients for the non-Neumann facets containing vertex v (a batch of one).

    Returns ``(facet_ids, alphas, info)``; info is (n_constraints, n_unknowns,
    objective, constraint residual). Raises InfeasibleConstraints when the
    equality constraints cannot be met.
    """
    alphas, info, _ = _solve_patches(mesh, resid, [v])
    lo, hi = mesh._vertex_facet_offsets[v:v + 2]
    fids, slots = mesh._vertex_facet_data[lo:hi].T
    nc, nu, obj, res = info[0]
    return fids, alphas[fids, slots], (int(nc), int(nu), float(obj), float(res))


@dataclass(frozen=True)
class BoundaryFluxSet:
    """Solved facet fluxes; ``gplus`` holds g_K of the plus side in canonical order."""

    gplus: np.ndarray       # (nf, d) facet-vertex values seen from the plus side
    alphas: np.ndarray      # (nf, d) coefficients (fixed on Neumann facets)
    avg: np.ndarray         # (nf,) plus-side average normal flux
    eps_max_rel: float      # worst scaled equality residual over constrained elements
    patches: np.ndarray     # (n_points, 4) per vertex patch, as _solve_patches' info


def equilibration_residuals(mesh: Mesh, resid: ResidualData, alphas: np.ndarray,
                            elems=slice(None)):
    """Assembled residuals eps[e, n] = D[e, n] + sum sigma * alpha over the vertex's facets.

    Rows of the elements ``elems`` only (all by default); a row does not depend
    on the others.
    """
    elems = np.arange(mesh.n_elements)[elems]
    fids = np.take(mesh.elem_facets, elems, axis=0)
    sigma = np.where(mesh.facet_tag[fids] != NEUMANN, np.take(mesh.elem_sigma, elems, axis=0), 0)
    total = np.zeros(fids.shape)        # over the local facets i in order, as a sum over i
    for i, fv in enumerate(facet_vertices(mesh.dim)):
        total[:, fv] += sigma[:, i, None] * np.take(alphas, fids[:, i], axis=0)
    return np.take(resid.D, elems, axis=0) + total


def equilibrate(mesh: Mesh, sol: FemSolution) -> BoundaryFluxSet:
    """Solve all vertex-patch problems and assemble the boundary fluxes.

    Postcondition (audited): on every element with kappa*rho <= 1 the assembled
    residuals vanish to 1e-9 relative to the data scale of their vertex patch,
    the scale its patch solve met the constraints at; this is the exact
    equilibration property against affine functions. Only those rows are
    assembled.
    """
    d = mesh.dim
    resid = residual_functionals(mesh, sol)
    alphas, info, patch_scale = _solve_patches(mesh, resid, np.arange(mesh.n_points))

    neu = mesh.neumann
    alphas[neu] = sol.gn_loads - resid.avg[neu, None] * (mesh.facet_measures[neu] / d)[:, None]
    gplus = resid.avg[:, None] + _mass_inverse_times(alphas, mesh.facet_measures[:, None], d - 1)
    gplus[neu] = _mass_inverse_times(sol.gn_loads, mesh.facet_measures[neu, None], d - 1)

    constrained = np.flatnonzero(~mesh.layer)
    eps = equilibration_residuals(mesh, resid, alphas, constrained)
    rel = np.abs(eps) / np.maximum(patch_scale[np.take(mesh.simplices, constrained, axis=0)],
                                   1e-300)
    eps_max_rel = float(rel.max()) if rel.size else 0.0
    if not eps_max_rel <= CONSTRAINT_TOL:     # a NaN fails too
        raise InfeasibleConstraints(
            f"assembled equilibration residual {eps_max_rel:.3e} exceeds {CONSTRAINT_TOL:g}")

    return BoundaryFluxSet(gplus=gplus, alphas=alphas, avg=resid.avg,
                           eps_max_rel=eps_max_rel, patches=info)
