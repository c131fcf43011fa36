"""Element-wise H(div) flux reconstructions from the equilibrated boundary fluxes.

Variant 1 (polynomial): tau = grad u_h + tau_L + tau_Q, where tau_L is the
affine field matching the facet residuals R = g_K - grad u_h . n and tau_Q a
quadratic correction with zero normal trace whose divergence absorbs the affine
part of the residual. On elements where kappa*rho <= 1 the equilibration makes
the divergence condition exact, so the indicator reduces to ||tau_L + tau_Q||.
The field exists only as its explicit coefficients in the P2 basis
{lambda_n} u {lambda_a lambda_b, a < b} of ``quadrature.p2_basis``
(``_variant1_coefficients``): its squared norm is a quadratic form in them with
the exact Gram matrix of that basis (``eta1_terms``), and its normal traces are
the basis at the facet nodes times them (``facet_trace_values``).

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibration import BoundaryFluxSet, _to_local_vertices
from .errors import DivergenceAuditFailed, InvalidVariant
from .fem import _mass_norm_sq
from .geometry import Mesh, facet_vertices
from .quadrature import p2_basis, quadratic_gram_factor, quadratic_pairs, rule_for, simplex_moment

TRACE_DEGREE = 4        # facet rule of the normal-trace audit
AUDIT_TOL = 1e-9


def facet_residuals(mesh: Mesh, fluxes: BoundaryFluxSet, grad: np.ndarray) -> np.ndarray:
    """R[e, i, m]: value of g_K - grad u_h . n_K on facet i of element e.

    Values follow the canonical facet vertex order (slot m).
    """
    g_all = mesh.elem_sigma[:, :, None] * fluxes.gplus[mesh.elem_facets]
    normals = mesh.outward_normals()
    gn = np.einsum("ed,eid->ei", grad, normals)
    return g_all - gn[:, :, None]


def _dot(u, v):
    """sum_c u[c] v[c] over the leading (component) axis, one component at a time.

    Pass (k, d) arrays transposed. A reduction over a short trailing axis costs
    several times more than these d whole-vector operations.
    """
    out = u[0] * v[0]
    for c in range(1, len(u)):
        out += u[c] * v[c]
    return out


# ---------------------------------------------------------------------------
# variant 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant1Bulk:
    """Per-element data of the polynomial reconstruction."""

    c: np.ndarray        # (ne, d+1, d) coefficients of tau_L = -sum lambda_n c_n
    div_l: np.ndarray    # (ne,) constant divergence of tau_L
    grad_r: np.ndarray   # (ne, d) gradient of r = Pi_K f - kappa^2 u_h
    r_bar: np.ndarray    # (ne,) centroid value of r


def _variant1_coeffs(pts, g, rv, r_vals) -> Variant1Bulk:
    # rv[e, m, n]: residual of facet m at local vertex n, zero on the diagonal
    w = rv * np.linalg.norm(g, axis=2)[:, :, None]      # weight of edge (n -> m)
    c = np.matmul(w.transpose(0, 2, 1), pts) - w.sum(axis=1)[:, :, None] * pts
    div_l = -np.einsum("end,end->e", g, c)
    grad_r = np.einsum("end,en->ed", g, r_vals)
    return Variant1Bulk(c=c, div_l=div_l, grad_r=grad_r, r_bar=r_vals.mean(axis=1))


def variant1_bulk(mesh: Mesh, R: np.ndarray, r_vals: np.ndarray) -> Variant1Bulk:
    # c_n = sum_m w_mn (x_m - x_n) does not depend on the origin; vertices
    # centred on their element's mean keep its digits far from the origin
    pts = mesh.points[mesh.simplices]
    pts -= pts.mean(axis=1, keepdims=True)
    return _variant1_coeffs(pts, mesh.bary_grads, _to_local_vertices(R), r_vals)


def _variant1_coefficients(mesh: Mesh, v1: Variant1Bulk, sel):
    """The P2 coefficients of tau_L + tau_Q on the elements ``sel``, one component at a time.

    Yields per component c the (nb, k) stack in the basis of ``p2_basis``: -c_n[c]
    for each vertex n, then t[c] (t.grad_r) / (d+1) for each pair a < b, with
    t = x_b - x_a. It is one buffer, overwritten for the next component.
    """
    d = mesh.dim
    a, b = quadratic_pairs(d)
    P = mesh.points.T[:, mesh.simplices[sel].T]         # (d, d+1, k)
    grad_r = v1.grad_r[sel].T
    t, tg = np.empty((d, len(a), P.shape[2])), np.empty((len(a), P.shape[2]))
    for p, (n, m) in enumerate(zip(a, b)):     # pair by pair: small temporaries
        np.subtract(P[:, m], P[:, n], out=t[:, p])
        np.divide(_dot(t[:, p], grad_r), d + 1, out=tg[p])
    coeffs = np.empty((d + 1 + len(a), P.shape[2]))
    for tc, cc in zip(t, v1.c[sel].T):
        np.negative(cc, out=coeffs[:d + 1])
        np.multiply(tc, tg, out=coeffs[d + 1:])
        yield coeffs


def eta1_terms(mesh: Mesh, v1: Variant1Bulk):
    """(||tau_L + tau_Q||_K^2, divergence residual constant) per element.

    With v_c the P2 coefficients of component c (``_variant1_coefficients``)
    and G = L L^T the Gram matrix of that basis divided by |K|, the same on
    every simplex (``quadratic_gram_factor``), exact and non-negative:

        ||tau_L + tau_Q||_K^2 = |K| sum_c v_c^T G v_c = |K| sum_c |L^T v_c|^2.
    """
    LT = quadratic_gram_factor(mesh.dim).T
    first = 0.0
    for coeffs in _variant1_coefficients(mesh, v1, slice(None)):
        w = LT @ coeffs
        first = first + _dot(w, w)
    return mesh.volumes * first, v1.div_l + v1.r_bar


def divergence_audit(mesh: Mesh, resid_const: np.ndarray, pf_vals: np.ndarray,
                     u_vals: np.ndarray) -> float:
    """Check Pi_K f - kappa^2 u_h + div tau = 0 on elements with kappa*rho <= 1.

    The residual is constant on each element; it must vanish there because the
    equilibrated fluxes integrate the data residual exactly against constants.
    Returns the worst scaled residual norm.
    """
    d = mesh.dim
    scale = (np.sqrt(_mass_norm_sq(pf_vals, mesh.volumes, d))
             + mesh.kappa ** 2 * np.sqrt(_mass_norm_sq(u_vals, mesh.volumes, d)) + 1.0)
    norm = np.sqrt(mesh.volumes) * np.abs(resid_const)
    sel = ~mesh.layer
    worst = float((norm[sel] / scale[sel]).max()) if np.any(sel) else 0.0
    if not worst <= AUDIT_TOL:     # a NaN fails too
        raise DivergenceAuditFailed(
            f"divergence residual {worst:.3e} (scaled) exceeds {AUDIT_TOL:g} "
            f"on an element with kappa*rho <= 1")
    return worst


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
    P = np.take(mesh.points.T, mesh.simplices[sel].T, axis=1)
    P -= P[:, :1].copy()
    meas = mesh.facet_measures[mesh.elem_facets[sel]]
    w = meas / meas.sum(axis=1, keepdims=True)
    P -= np.einsum("dnk,kn->dk", P, w)[:, None]      # the apex
    G = np.take(mesh.bary_grads.T, sel, axis=2)
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


def _upper_nodes(n: int, h: np.ndarray):
    """n Gauss-Legendre nodes on [t0, 1] = [1 - h, 1], per element.

    Yields ``(s, t, w)`` with s = 1 - t formed directly: formed from t0 the
    upper length would lose about log10(kappa rho) digits.
    """
    xi, wi = np.polynomial.legendre.leggauss(n)
    for x, w in zip(xi, wi):
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
    """(||tau_O||_K^2, ||r + div tau_O||_K^2) for the selected elements.

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
    rv = r_vals[sel]
    grad_rc = g.T[:, 0] * rv[:, 0]      # component-first gradient of r
    for n in range(1, d + 1):
        grad_rc += g.T[:, n] * rv[:, n]
    r_apex = np.einsum("kn,kn->k", wts, rv)
    second = _below_cutoff_sq(rv, r_apex, 1.0 - h, mesh.volumes[sel], d)

    m0, m1, m2 = _flux_moments(q, rho, h, d)
    pairs, C2, C3, C4 = _facet_moment_tables(d)
    div_nodes = []              # (t, weight, alpha, c_rt) of the divergence term
    for s, t, w in _upper_nodes(math.ceil((d + 4) / 2), h):
        fac = 1.0 - q * s
        c_rt = (d * fac + q * t) / rho
        div_nodes.append((t, w * rho * t ** (d - 1), c_rt * t + fac * t / rho, c_rt))

    def cone(i):
        """(||tau_O||^2, ||r + div tau_O||^2 above t0) on the cone of facet i."""
        F, a, A0 = _facet_setup(pts, g, R[sel, i], i)[:3]
        a_c = a.T                   # (d, k), contiguous rows
        meas = mesh.facet_measures[mesh.elem_facets[sel, i]]
        W = [F.T[:, j] for j in range(d)]      # y at the facet vertices, (d, k) views
        Dv = np.array([_dot(a_c, w) for w in W])
        Gv = [_dot(grad_rc, w) for w in W]
        # the t-integrated flux term in the exact facet moments, one pair (j, l) at a time
        DD = np.empty((len(pairs), len(sel)))
        for row, (j, l) in zip(DD, pairs):
            np.multiply(Dv[j], Dv[l], out=row)
        c0, c1 = m0 * A0 * A0, 2.0 * m1 * A0
        flux = 0.0
        for (j, l), c2, c3, c4 in zip(pairs, C2, C3, C4):
            flux = flux + _dot(W[j], W[l]) * (m2 * (c4 @ DD) + c1 * (c3 @ Dv) + c2 * c0)
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
# normal traces (H(div) conformity checks)
# ---------------------------------------------------------------------------

def facet_trace_values(mesh: Mesh, grad: np.ndarray, v1: Variant1Bulk,
                       R: np.ndarray, variant: np.ndarray) -> list:
    """Normal trace of the assembled flux on every (element, facet) pair.

    ``variant`` (s, ne) stacks s selections of the reconstruction of each
    element (1 or 2). Returns a list of s traces of shape (ne, d+1, nq): the
    flux at the canonical facet quadrature points dotted with the element's
    outward normal. The points are defined on the facet, so they coincide for
    the two sharing elements. Each field is read once, on the elements where
    some selection uses it, and in closed form from the data its indicator
    reads: variant 1 as the P2 basis at the nodes of facet i (lambda_i = 0)
    times the coefficients ``eta1_terms`` reads; variant 2 from the facet data
    (F, a, b) of ``_facet_setup`` that ``eta2_terms`` reads. On facet i the
    cutoff factor is 1, so tau_O = s x with s = (a.x + b) / rho, and with
    x = sum_j mu_j F_j both s and x.n are affine in the facet barycentrics mu:
    the trace is grad u_h.n + (mu.S)(mu.X), S_j = (a.F_j + b) / rho and
    X_j = F_j.n at the facet vertices j.
    """
    d = mesh.dim
    rule = rule_for(d - 1, TRACE_DEGREE)
    normals = mesh.outward_normals()
    i1 = np.flatnonzero((variant != 2).any(axis=0))
    i2 = np.flatnonzero((variant == 2).any(axis=0))
    pts2, g2, _ = _component_first(mesh, i2)
    grad2, rho = grad[i2].T, mesh.inradii[i2]
    t1 = np.repeat(np.einsum("ed,eid->ei", grad[i1], normals[i1])[:, :, None], rule.n_points, 2)
    t2 = np.empty((len(i2), d + 1, rule.n_points))
    phi = [p2_basis(np.insert(rule.points, i, 0.0, axis=1)) for i in range(d + 1)]
    for c, coeffs in enumerate(_variant1_coefficients(mesh, v1, i1)):
        for i in range(d + 1):
            t1[:, i] += (phi[i] @ coeffs).T * normals[i1, i, c, None]
    for i in range(d + 1):
        F, a, b, _ = _facet_setup(pts2, g2, R[i2, i], i)
        F, a = F.T, a.T             # (d, d, k) and (d, k), contiguous rows
        n2 = normals[i2, i].T
        S = np.array([(_dot(a, F[:, j]) + b) / rho for j in range(d)])
        X = np.array([_dot(F[:, j], n2) for j in range(d)])
        t2[:, i] = ((rule.points @ S) * (rule.points @ X)).T + _dot(grad2, n2)[:, None]
    traces = [np.empty((mesh.n_elements, d + 1, rule.n_points)) for _ in variant]
    for trace, p in zip(traces, variant):
        trace[i1] = t1
        trace[i2[p[i2] == 2]] = t2[p[i2] == 2]
    return traces


def trace_mismatch(mesh: Mesh, trace: np.ndarray, scale: np.ndarray) -> float:
    """Worst interior-facet mismatch tau_K.n_K + tau_K'.n_K' over the trace points.

    ``scale`` (nf,) is max(1, facet flux magnitude), so that structural H(div)
    conformity is tested at machine precision regardless of the data size.
    """
    interior = np.flatnonzero(mesh.facet_elems[:, 1] >= 0)
    ep, lp = mesh.facet_elems[interior, 0], mesh.facet_local[interior, 0]
    em, lm = mesh.facet_elems[interior, 1], mesh.facet_local[interior, 1]
    mism = np.abs(trace[ep, lp] + trace[em, lm]).max(axis=1)
    return float((mism / scale[interior]).max()) if len(interior) else 0.0
