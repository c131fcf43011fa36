"""Element-wise H(div) flux reconstructions from the equilibrated boundary fluxes.

Variant 1 (polynomial): tau = grad u_h + tau_L + tau_Q, where tau_L is the
affine field matching the facet residuals R = g_K - grad u_h . n and tau_Q a
quadratic correction with zero normal trace whose divergence absorbs the affine
part of the residual. On elements where kappa*rho <= 1 the equilibration makes
the divergence condition exact, so the indicator reduces to ||tau_L + tau_Q||.
The field exists only as its explicit coefficients in the P2 basis
{lambda_n} u {lambda_a lambda_b, a < b} of ``quadrature.p2_basis``, built once
per block of elements with the divergence-residual constant (``variant1_bulk``):
its squared norm is a quadratic form in them with the exact Gram matrix of that
basis (``eta1_terms``), and its normal traces are the basis at the facet nodes
times them (``facet_trace_values``).

Variant 2 (layer): tau = grad u_h + tau_O, with tau_O supported on the cones
joining each facet to the incentre, the apex, and cut off at height 1/kappa,
matching the boundary-layer structure for kappa*rho > 1. With the apex as
origin (``_component_first``), so that nothing depends on where the mesh sits,
tau_O = (1 - kappa xd)_+ (a.x + b) x / rho on the cone of a facet, xd the
distance from the facet plane. a.x + b extends the facet residual constantly
along the facet normal: a is the tangential part of sum_j R_j grad lambda_j
over the facet vertices j, and b matches R at the first of them. The field
exists only as this facet data (F, a, b) of ``_facet_setup``, F the facet
vertices: the layer norms integrate it in closed form (``eta2_terms``), and
on the facet, where the cutoff factor is 1, its normal trace is the product
of two affine functions fixed by their facet-vertex values
(``facet_trace_values``).

The layer norms are integrated over each cone in the collapsed (Duffy)
coordinates x = t y, y on the facet, in three exact pieces: below the cutoff,
r + div tau_O = r on the shrunken simplex t0 K (one P1 mass norm, exact for the
quadratic r^2); above it, r + div tau_O is affine in y at each Gauss-Legendre
node in t (a P1 facet mass norm per node, ceil((d+4)/2) nodes for degree d+3
in t); and |tau_O|^2 reduces to three t-moments per element (ceil((d+6)/2)
nodes for degree d+5 in t) times a quartic in y, integrated over the facet
exactly by the cached moments of the facet barycentrics up to degree 4. See
``eta2_terms``.

Every stage takes the facet residuals R and the vertex values of r of its own
elements only, rows in their order, so a caller holds them one block at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibration import BoundaryFluxSet, _to_local_vertices
from .errors import DivergenceAuditFailed, InvalidVariant
from .fem import _mass_norm_sq
from .geometry import Mesh, _dot, _row_max, _row_sum, facet_vertices
from .quadrature import p2_basis, quadratic_gram_factor, quadratic_pairs, rule_for, simplex_moment

TRACE_DEGREE = 4        # facet rule of the normal-trace audit
AUDIT_TOL = 1e-9


def facet_residuals(mesh: Mesh, fluxes: BoundaryFluxSet, grad: np.ndarray,
                    elems=slice(None)) -> np.ndarray:
    """R[e, i, m]: value of g_K - grad u_h . n_K on facet i of element e, for the
    elements ``elems`` (all by default; rows in their order).

    Values follow the canonical facet vertex order (slot m).
    """
    g_all = mesh.elem_sigma[elems, :, None] * np.take(fluxes.gplus, mesh.elem_facets[elems],
                                                      axis=0)
    gn = np.einsum("ed,eid->ei", grad[elems], mesh.outward_normals(elems))
    return g_all - gn[:, :, None]


def _times(A: np.ndarray, X) -> np.ndarray:
    """A @ X for a small constant matrix A (m, k) and the k rows X[j] of equal shape.

    Every entry sums A[r, j] X[j] over j in order, whatever the shape of the
    rows: BLAS rounds a column by its position in the product, so through it
    an element's value would depend on the block it is computed in. Column j
    updates the rows from its first to its last nonzero entry, so zeros of A
    outside that span cost nothing (a triangular A takes half the work).
    """
    out = np.zeros((len(A),) + np.shape(X[0]))
    for j in range(A.shape[1]):
        rows = np.flatnonzero(A[:, j])
        if len(rows):
            span = slice(rows[0], rows[-1] + 1)
            out[span] += A[span, j, None] * X[j]
    return out


# ---------------------------------------------------------------------------
# variant 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant1Bulk:
    """The polynomial reconstruction on the elements ``elems``, rows in their order."""

    coeffs: np.ndarray       # (d, d+1 + d(d+1)/2, k) P2 coefficients of each component
    resid_const: np.ndarray  # (k,) constant divergence residual r + div tau_L
    elems: object            # the elements of the rows: a slice or ids


def variant1_bulk(mesh: Mesh, R: np.ndarray, r_vals: np.ndarray,
                  elems=slice(None)) -> Variant1Bulk:
    """The variant-1 field of the elements ``elems`` (all by default) from their
    (k, d+1, d) facet residuals R and (k, d+1) vertex values of r.

    tau_L = -sum_n lambda_n c_n with c_n = sum_m w_mn (x_m - x_n), w_mn the
    residual of facet m at vertex n times |grad lambda_m|; tau_Q = sum_{a<b}
    lambda_a lambda_b t (t.grad r) / (d+1), t = x_b - x_a. Per component the
    coefficients in the basis of ``p2_basis`` are -c_n for each vertex n, then
    t (t.grad r) / (d+1) for each pair a < b.
    """
    d = mesh.dim
    # c_n does not depend on the origin; vertices centred on their element's
    # mean keep its digits far from the origin
    X = np.take(mesh.points, mesh.simplices[elems], axis=0)
    pts = X - (_row_sum(X.swapaxes(1, 2)) / (d + 1))[:, None]
    g = mesh.bary_grads[elems]
    w = _to_local_vertices(R) * np.sqrt(_row_sum(g * g))[:, :, None]   # edge (n -> m)
    c = np.matmul(w.transpose(0, 2, 1), pts) - _row_sum(w.swapaxes(1, 2))[:, :, None] * pts
    resid_const = -np.einsum("end,end->e", g, c) + _row_sum(r_vals) / (d + 1)
    grad_r = np.einsum("end,en->ed", g, r_vals).T
    a, b = quadratic_pairs(d)
    P = X.T     # (d, d+1, k)
    coeffs = np.empty((d, d + 1 + len(a), P.shape[2]))
    np.negative(c.T, out=coeffs[:, :d + 1])
    for p, (n, m) in enumerate(zip(a, b)):     # pair by pair: small temporaries
        t = P[:, m] - P[:, n]
        np.multiply(t, _dot(t, grad_r) / (d + 1), out=coeffs[:, d + 1 + p])
    return Variant1Bulk(coeffs=coeffs, resid_const=resid_const, elems=elems)


def eta1_terms(mesh: Mesh, v1: Variant1Bulk):
    """(||tau_L + tau_Q||_K^2, divergence residual constant) per element.

    With v_c the P2 coefficients of component c and G = L L^T the Gram matrix
    of that basis divided by |K|, the same on every simplex
    (``quadratic_gram_factor``), exact and non-negative:

        ||tau_L + tau_Q||_K^2 = |K| sum_c v_c^T G v_c = |K| sum_c |L^T v_c|^2.

    Rows as in v1.
    """
    LT = quadratic_gram_factor(mesh.dim).T
    first = 0.0
    for coeffs in v1.coeffs:
        w = _times(LT, coeffs)
        first = first + _dot(w, w)
    return mesh.volumes[v1.elems] * first, v1.resid_const


def divergence_residual(mesh: Mesh, resid_const: np.ndarray, pf_vals: np.ndarray,
                        u_vals: np.ndarray, elems=slice(None)) -> tuple:
    """``(worst, element)``: the worst scaled divergence residual over the elements
    ``elems`` (a slice, all by default; the arrays hold their rows) with kappa*rho
    <= 1 and the first element with it, a NaN the worst; ``(0.0, None)`` if none."""
    d = mesh.dim
    volumes, kappa = mesh.volumes[elems], mesh.kappa[elems]
    scale = (np.sqrt(_mass_norm_sq(pf_vals, volumes, d))
             + kappa ** 2 * np.sqrt(_mass_norm_sq(u_vals, volumes, d)) + 1.0)
    norm = np.sqrt(volumes) * np.abs(resid_const)
    sel = np.flatnonzero(~mesh.layer[elems])
    if not len(sel):
        return 0.0, None
    ratio = norm[sel] / scale[sel]
    k = int(np.argmax(ratio))       # the first NaN, if any
    return float(ratio[k]), range(mesh.n_elements)[elems][sel[k]]


def check_divergence(worst) -> float:
    """The value of the ``(value, element)`` record ``worst`` when it is within
    AUDIT_TOL, else DivergenceAuditFailed naming the element."""
    value, e = worst
    if not value <= AUDIT_TOL:     # a NaN fails too
        raise DivergenceAuditFailed(
            f"divergence residual {value:.3e} (scaled) exceeds {AUDIT_TOL:g} "
            f"on element {e}, where kappa*rho <= 1")
    return value


# ---------------------------------------------------------------------------
# variant 2
# ---------------------------------------------------------------------------

def _component_first(mesh: Mesh, sel: np.ndarray):
    """The selected elements in their apex's frame: ``(pts, g, w)``.

    pts and g are the vertices relative to the incentre and the barycentric
    gradients, (k, d+1, d) transposes of C-contiguous (d, d+1, k) arrays; w
    (k, d+1) the incentre's barycentric weights |gamma_j| / sum |gamma|. The
    vertices are taken relative to vertex 0 first, so the frame does not
    depend on where the mesh sits.
    """
    # gathered first and then transposed: np.take along an axis of the transposed
    # mesh arrays would copy them whole on every call
    P = np.ascontiguousarray(
        np.take(mesh.points, np.take(mesh.simplices, sel, axis=0).T, axis=0).transpose(2, 0, 1))
    P -= P[:, :1].copy()
    meas = np.take(mesh.facet_measures, np.take(mesh.elem_facets, sel, axis=0))
    w = meas / _row_sum(meas)[:, None]
    P -= _dot(P.transpose(1, 0, 2), w.T)[:, None]      # the apex
    G = np.ascontiguousarray(np.take(mesh.bary_grads, sel, axis=0).T)
    return P.T, G.T, w


def _facet_setup(pts, g, Rf, i: int):
    """Local facet i (opposite vertex i) of a batch of elements.

    ``pts``/``g`` are the (k, d+1, d) element vertices and barycentric
    gradients, ``Rf`` (k, d) the facet residual values at the facet vertices.
    Returns ``(F, a, b, ed)``: the facet vertices in element order (the
    canonical facet order, element vertices being sorted), the affine extension
    R(x) = a.x + b of the residual, constant along the facet normal (a
    orthogonal to ed), and the inward unit normal ed, all in the frame of
    ``pts``: in ``_component_first``'s, F is relative to the apex and b = R(apex).

    The arithmetic runs component by component on the transposes, whose rows
    are contiguous when the inputs are transposed C-contiguous arrays, as
    ``_component_first`` builds them; F, a and ed come back as transposes of
    component-first arrays too, (d, d, k) and (d, k).
    """
    fv = facet_vertices(pts.shape[2])[i]
    P, G, Rt = pts.T, g.T, Rf.T             # (d, d+1, k), (d, d+1, k), (d, k)
    F = P[:, fv]
    gi = G[:, i]
    ed = gi / np.sqrt(_dot(gi, gi))
    grad = Rt[0] * G[:, fv[0]]              # gradient of sum_j Rf_j lambda_j
    for j in range(1, len(fv)):
        grad += Rt[j] * G[:, fv[j]]
    a = grad - _dot(grad, ed) * ed
    b = Rt[0] - _dot(a, F[:, 0])
    return F.T, a.T, b, ed.T


def _below_cutoff_sq(r_vals, r_apex, t0, volumes, d: int):
    """||r||^2 over the shrunken simplices t0 K, t0 (n,), in the apex's frame.

    These are the parts of the d+1 cones of each element below the cutoff,
    where r + div tau_O = r; r has the vertex values r_apex + t0 (r_j - r_apex)
    there.
    """
    v = r_apex[:, None] + t0[:, None] * (r_vals - r_apex[:, None])
    return _mass_norm_sq(v, t0 ** d * volumes, d)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre (nodes, weights) on [-1, 1]. Read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for table in rule:
        table.setflags(write=False)
    return rule


def _upper_nodes(n: int, h: np.ndarray):
    """n Gauss-Legendre nodes on [t0, 1] = [1 - h, 1], per element.

    Yields ``(s, t, w)`` with s = 1 - t formed directly: formed from t0 the
    upper length would lose about log10(kappa rho) digits.
    """
    for x, w in zip(*_gauss_legendre(n)):
        s = h * ((1.0 - x) / 2)
        yield s, 1.0 - s, h * (w / 2)


def _flux_moments(q, rho, h, d: int):
    """m_k = int_t0^1 rho t^(d-1) c_d^2 t^k dt, k = 0, 1, 2, with c_d = (1 - q (1 - t)) t / rho.

    Degree d+5 in t: ceil((d+6)/2) Gauss-Legendre nodes are exact.
    """
    m0 = m1 = m2 = 0.0
    for s, t, w in _upper_nodes(math.ceil((d + 6) / 2), h):
        wc = w * rho * t ** (d - 1) * ((1.0 - q * s) * t / rho) ** 2
        m0 = m0 + wc
        m1 = m1 + wc * t
        m2 = m2 + wc * t * t
    return m0, m1, m2


@lru_cache(maxsize=None)
def _facet_moment_tables(d: int):
    """Moments of the barycentrics mu of a (d-1)-simplex for the flux term of eta2_terms.

    Over the pairs p = (j, l), j <= l, of ``pairs`` and with the factor 2 of an
    off-diagonal pair (j < l) folded in: C2[p] = E[mu_j mu_l],
    C3[p, i] = E[mu_j mu_l mu_i] and C4[p, p'] = E[mu_j mu_l mu_i mu_k] for
    p' = (i, k), E the mean over the simplex (``simplex_moment``). Read-only.
    """
    pairs = [(j, l) for j in range(d) for l in range(j, d)]
    mult = np.array([1.0 if j == l else 2.0 for j, l in pairs])

    def mean(*idx):
        return simplex_moment(np.bincount(idx, minlength=d))

    C2 = mult * [mean(*p) for p in pairs]
    C3 = mult[:, None] * [[mean(*p, i) for i in range(d)] for p in pairs]
    C4 = np.outer(mult, mult) * [[mean(*p, *pk) for pk in pairs] for p in pairs]
    for table in (C2, C3, C4):
        table.setflags(write=False)
    return pairs, C2, C3, C4


def eta2_terms(mesh: Mesh, R: np.ndarray, r_vals: np.ndarray, sel: np.ndarray):
    """(||tau_O||_K^2, ||r + div tau_O||_K^2) for the selected elements, from their
    (k, d+1, d) facet residuals R and (k, d+1) vertex values of r, rows in the order of sel.

    Requires kappa > 0 on the selection. Everything is in the frame of
    ``_component_first``, whose origin is the apex. Each facet cone is
    parametrised by the collapsed coordinates x = t y, y on the facet and t in
    [0, 1]: dx = rho t^(d-1) dt dy, and x lies (1 - t) rho above the facet
    plane, so the cutoff height 1/kappa sits at t0 = 1 - h, h = min(1, 1/q),
    q = kappa rho, and tau_O vanishes below it. With A0 = R(apex) = b,
    D = a.y, G = grad r.y, rt = A0 + t D and fac = 1 - q (1 - t), above t0

        tau_O = c_d rt y,                           c_d = fac t / rho,
        r + div tau_O = alpha D + t G + c_rt A0 + r(apex),
            c_rt = (d fac + q t) / rho,  alpha = c_rt t + c_d,

    where r(apex) = sum_j w_j r_j in the incentre's barycentric weights w.
    Three exact pieces:

    1. below t0, r + div tau_O = r, and the lower parts of the cones tile
       t0 K: one P1 mass norm per element (_below_cutoff_sq);
    2. above t0, r + div tau_O is affine in y at each node t_p, so its square
       integrates over the facet as the P1 mass norm of its facet-vertex
       values; in t the integrand has degree d+3, so ceil((d+4)/2)
       Gauss-Legendre nodes are exact;
    3. |tau_O|^2 integrates in t to (c0 + c1 D + m2 D^2) |y|^2,
       c0 = m0 A0^2 and c1 = 2 m1 A0, with the per-element moments
       m_k of _flux_moments. In the facet barycentrics mu, y = sum_j mu_j W_j
       with W_j = F_j the facet vertices and D = sum_i mu_i D_i, D_i = a.W_i,
       so the facet integral is exact in the moments of _facet_moment_tables:

           |gamma| sum_{j<=l} (W_j.W_l) (C2 c0 + c1 sum_i C3 D_i
                                         + m2 sum_{i<=k} C4 D_i D_k).

    Everything is row-wise and component by component, so an element's value
    does not depend on the rest of the selection.
    """
    d = mesh.dim
    kap = mesh.kappa[sel]
    if np.any(kap == 0):
        raise InvalidVariant("layer reconstruction requires kappa > 0")
    rho = mesh.inradii[sel]
    q = kap * rho
    h = np.minimum(1.0, 1.0 / q)
    pts, g, wts = _component_first(mesh, sel)
    grad_rc = g.T[:, 0] * r_vals[:, 0]      # component-first gradient of r
    for n in range(1, d + 1):
        grad_rc += g.T[:, n] * r_vals[:, n]
    r_apex = np.einsum("kn,kn->k", wts, r_vals)
    second = _below_cutoff_sq(r_vals, r_apex, 1.0 - h, mesh.volumes[sel], d)

    m0, m1, m2 = _flux_moments(q, rho, h, d)
    pairs, C2, C3, C4 = _facet_moment_tables(d)
    div_nodes = []              # (t, weight, alpha, c_rt) of the divergence term
    for s, t, w in _upper_nodes(math.ceil((d + 4) / 2), h):
        fac = 1.0 - q * s
        c_rt = (d * fac + q * t) / rho
        div_nodes.append((t, w * rho * t ** (d - 1), c_rt * t + fac * t / rho, c_rt))

    def cone(i):
        """(||tau_O||^2, ||r + div tau_O||^2 above t0) on the cone of facet i."""
        F, a, A0 = _facet_setup(pts, g, R[:, i], i)[:3]
        a_c = a.T                   # (d, k), contiguous rows
        meas = np.take(mesh.facet_measures, np.take(mesh.elem_facets, sel * (d + 1) + i))
        W = [F.T[:, j] for j in range(d)]      # y at the facet vertices, (d, k) views
        Dv = np.array([_dot(a_c, w) for w in W])
        Gv = [_dot(grad_rc, w) for w in W]
        # the t-integrated flux term in the exact facet moments, one pair (j, l) at a time
        DD = np.empty((len(pairs), len(sel)))
        for row, (j, l) in zip(DD, pairs):
            np.multiply(Dv[j], Dv[l], out=row)
        c0, c1 = m0 * A0 * A0, 2.0 * m1 * A0
        flux = 0.0
        for (j, l), c2, c3, c4 in zip(pairs, C2, _times(C3, Dv), _times(C4, DD)):
            flux = flux + _dot(W[j], W[l]) * (m2 * c4 + c1 * c3 + c2 * c0)
        upper = 0.0
        for t, wt, alpha, c_rt in div_nodes:
            beta = c_rt * A0 + r_apex
            v = [alpha * D + t * G + beta for D, G in zip(Dv, Gv)]
            total = sum(v[1:], v[0])
            upper = upper + wt * (_dot(v, v) + total * total)
        return meas * flux, meas / (d * (d + 1)) * upper   # _mass_norm_sq on the facet

    first = np.zeros(len(sel))
    for i in range(d + 1):      # in a function, so that one facet's arrays are alive at a time
        flux, div = cone(i)
        first += flux
        second += div
    return first, second


# ---------------------------------------------------------------------------
# normal traces (the H(div) conformity audit)
# ---------------------------------------------------------------------------

def facet_trace_values(mesh: Mesh, grad: np.ndarray, v1: Variant1Bulk,
                       R: np.ndarray, variant: np.ndarray) -> tuple:
    """Normal traces of each flux field on the elements of v1 (``v1.elems``)
    where some selection uses it.

    ``variant`` (s, k) stacks s selections of the reconstruction of each of
    those elements (1 or 2); ``R`` holds their facet residuals, rows as in v1,
    and ``grad`` is mesh-sized. Returns ``((rows1, t1), (rows2, t2))``: per
    variant, the rows of v1 that use it and its (len(rows), d+1, nq) trace,
    the flux at the canonical facet points dotted with the outward normal.
    Each field is read once, in closed form from the data its indicator
    reads: variant 1 as the P2 basis at the nodes of facet i (lambda_i = 0)
    times the coefficients of v1, which ``eta1_terms`` reads; variant 2 from
    the facet data (F, a, b) of ``_facet_setup`` that ``eta2_terms`` reads.
    On facet i the cutoff factor is 1, so tau_O = s x with s = (a.x + b) / rho,
    and with x = sum_j mu_j F_j both s and x.n are affine in the facet
    barycentrics mu: the trace is grad u_h.n + (mu.S)(mu.X),
    S_j = (a.F_j + b) / rho and X_j = F_j.n at the facet vertices j.
    """
    d = mesh.dim
    rule = rule_for(d - 1, TRACE_DEGREE)
    ids = v1.elems
    if isinstance(ids, slice):
        ids = np.arange(*ids.indices(mesh.n_elements))
    i1 = np.flatnonzero((variant != 2).any(axis=0))
    i2 = np.flatnonzero((variant == 2).any(axis=0))
    e1, e2 = ids[i1], ids[i2]
    normals1, normals2 = mesh.outward_normals(e1), mesh.outward_normals(e2)
    pts2, g2, _ = _component_first(mesh, e2)
    grad2, rho = np.take(grad, e2, axis=0).T, mesh.inradii[e2]
    t1 = np.repeat(np.einsum("ed,eid->ei", np.take(grad, e1, axis=0), normals1)[:, :, None],
                   rule.n_points, 2)
    t2 = np.empty((len(i2), d + 1, rule.n_points))
    for i in range(d + 1):
        # the coefficients of the normal component on facet i, then the basis at its nodes
        normal = np.zeros((v1.coeffs.shape[1], len(i1)))
        for c, coeffs in enumerate(v1.coeffs):
            normal += np.take(coeffs, i1, axis=1) * normals1[:, i, c]
        t1[:, i] += _times(p2_basis(np.insert(rule.points, i, 0.0, axis=1)), normal).T
    for i in range(d + 1):
        F, a, b, _ = _facet_setup(pts2, g2, np.take(R.reshape(-1, d), i2 * (d + 1) + i, axis=0),
                                  i)          # R[i2, i]
        F, a = F.T, a.T             # (d, d, k) and (d, k), contiguous rows
        n2 = normals2[:, i].T
        S = np.array([(_dot(a, F[:, j]) + b) / rho for j in range(d)])
        X = np.array([_dot(F[:, j], n2) for j in range(d)])
        t2[:, i] = (_times(rule.points, S) * _times(rule.points, X)).T + _dot(grad2, n2)[:, None]
    return (i1, t1), (i2, t2)


def trace_defect(mesh: Mesh, gplus: np.ndarray, trace: np.ndarray, elems) -> np.ndarray:
    """(k, d+1) worst |sigma_K tau_K.n_K - g| / max(1, |g|) over the points of each
    facet, for the (k, d+1, nq) normal ``trace`` of the elements ``elems`` (ids).

    g is the facet's plus-side equilibrated flux ``gplus`` at the points: each
    flux must reproduce g_K = sigma_K g, and as sigma_K' = -sigma_K, the sum
    tau_K.n_K + tau_K'.n_K' is at most the two sides' defects.
    """
    points = rule_for(mesh.dim - 1, TRACE_DEGREE).points
    out = np.empty(trace.shape[:2])
    for i in range(mesh.dim + 1):   # one facet at a time: small temporaries
        at = elems * (mesh.dim + 1) + i                      # (element, facet i) in the tables
        g = np.take(gplus, np.take(mesh.elem_facets, at), axis=0)       # (k, d)
        defect = np.take(mesh.elem_sigma, at)[:, None] * trace[:, i]
        defect -= _times(points, g.T).T
        out[:, i] = _row_max(np.abs(defect, out=defect)) / np.maximum(1.0, _row_max(np.abs(g)))
    return out
