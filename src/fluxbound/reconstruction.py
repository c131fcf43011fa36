"""Element-wise H(div) flux reconstructions from the equilibrated boundary fluxes.

Variant 1 (polynomial): tau = grad u_h + tau_L + tau_Q, where tau_L is the
affine field matching the facet residuals R = g_K - grad u_h . n and tau_Q a
quadratic correction with zero normal trace whose divergence absorbs the affine
part of the residual. On elements where kappa*rho <= 1 the equilibration makes
the divergence condition exact, so the indicator reduces to ||tau_L + tau_Q||.

Variant 2 (layer): tau = grad u_h + tau_O, with tau_O supported on the cones
joining each facet to the incentre and cut off at height 1/kappa, matching the
boundary-layer structure for kappa*rho > 1. Element norms are computed by
splitting each cone at the cutoff into a frustum (triangulated into d
simplices) plus a shrunken cone, so that the integrands are polynomial on
every piece and the quadrature is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibration import BoundaryFluxSet, _to_local_vertices
from .errors import DivergenceAuditFailed, InvalidVariant
from .fem import _mass_norm_sq
from .geometry import (Mesh, barycentric_gradients, geometric_quantities, locate,
                       simplex_geometry, simplex_measure)
from .quadrature import integrate_simplices, rule_for

ETA1_DEGREE = 4   # |tau_L + tau_Q|^2 has degree 4
ETA2_DEGREE = 6   # |tau_O|^2 has degree 6 on the active pieces
TOP_DEGREE = 2    # (affine)^2 beyond the cutoff
TRACE_DEGREE = 4  # facet rule of the normal-trace audit
AUDIT_TOL = 1e-9


def facet_residuals(mesh: Mesh, fluxes: BoundaryFluxSet, grad: np.ndarray) -> np.ndarray:
    """R[e, i, m]: value of g_K - grad u_h . n_K on facet i of element e.

    Values follow the canonical facet vertex order (slot m).
    """
    g_all = mesh.elem_sigma[:, :, None] * fluxes.gplus[mesh.elem_facets]
    normals = mesh.outward_normals()
    gn = np.einsum("ed,eid->ei", grad, normals)
    return g_all - gn[:, :, None]


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
    c = np.einsum("emn,emd->end", w, pts) - w.sum(axis=1)[:, :, None] * pts
    div_l = -np.einsum("end,end->e", g, c)
    grad_r = np.einsum("end,en->ed", g, r_vals)
    return Variant1Bulk(c=c, div_l=div_l, grad_r=grad_r, r_bar=r_vals.mean(axis=1))


def variant1_bulk(mesh: Mesh, R: np.ndarray, r_vals: np.ndarray) -> Variant1Bulk:
    return _variant1_coeffs(mesh.points[mesh.simplices], mesh.bary_grads,
                            _to_local_vertices(mesh, R), r_vals)


def _tau_q_pairs(pts, grad_r):
    """Per vertex pair n < m of each element: (n, m, t = x_m - x_n, t.grad_r / (d+1))."""
    dp1 = pts.shape[1]
    pairs = []
    for n in range(dp1):
        for m in range(n + 1, dp1):
            t = pts[:, m] - pts[:, n]
            pairs.append((n, m, t, np.einsum("ed,ed->e", t, grad_r) / dp1))
    return pairs


def variant1_field(lam, c, pairs):
    """tau_L + tau_Q at barycentric coordinates ``lam`` (..., d+1).

    tau_L = -sum_n lam_n c_n matches the facet residuals; tau_Q = sum_{n<m}
    lam_n lam_m t (t.grad_r) / (d+1) has zero normal trace. The leading axes of
    ``lam`` broadcast against the elements of ``c`` and ``pairs``
    (see _tau_q_pairs).
    """
    field = -np.einsum("...n,...nd->...d", lam, c)
    for n, m, t, tg in pairs:
        field += (lam[..., n] * lam[..., m] * tg)[..., None] * t
    return field


def eta1_terms(mesh: Mesh, v1: Variant1Bulk, degree: int = ETA1_DEGREE):
    """(||tau_L + tau_Q||_K^2, divergence residual constant) per element."""
    pts = mesh.points[mesh.simplices]
    pairs = _tau_q_pairs(pts, v1.grad_r)
    first = integrate_simplices(
        lambda x, lam: (variant1_field(lam[None], v1.c, pairs) ** 2).sum(axis=1),
        pts, mesh.volumes, degree)
    resid_const = v1.div_l + v1.r_bar
    return first, resid_const


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
    sel = mesh.kappa * mesh.inradii <= 1.0
    worst = float((norm[sel] / scale[sel]).max()) if np.any(sel) else 0.0
    if worst > AUDIT_TOL:
        raise DivergenceAuditFailed(
            f"divergence residual {worst:.3e} (scaled) exceeds {AUDIT_TOL:g} "
            f"on an element with kappa*rho <= 1")
    return worst


# ---------------------------------------------------------------------------
# variant 2
# ---------------------------------------------------------------------------

def split_cone_frustum(facet_vertices, apex, cut: float):
    """Split the cone conv(facet, apex) at height ``cut`` above the facet plane.

    Returns ``(pieces, top)``: the frustum below the cut triangulated into d
    simplices (staircase pattern; the lateral faces are planar because they lie
    in the cone's facets), and the shrunken top cone above the cut.
    """
    f = np.asarray(facet_vertices, dtype=float)
    apex = np.asarray(apex, dtype=float)
    d = f.shape[1]
    height = geometric_quantities(np.vstack([f, apex])).altitudes[d]
    if not 0.0 < cut < height:
        raise ValueError(f"cut {cut} must lie strictly between 0 and the apex height {height}")
    s = cut / height
    g = f + s * (apex - f)
    pieces = np.array([np.vstack([f[:j], g[j - 1:]]) for j in range(1, d + 1)])
    top = np.vstack([g, apex[None, :]])
    return pieces, top


def _facet_setup(pts, g, Rf, i: int):
    """Local facet i (opposite vertex i) of a batch of elements.

    ``pts``/``g`` are the (k, d+1, d) element vertices and barycentric
    gradients, ``Rf`` (k, d) the facet residual values at the facet vertices.
    Returns ``(F, a, b, ed)``: the facet vertices in element order (the
    canonical facet order, element vertices being sorted), the affine extension
    R(x) = a.x + b of the residual, constant along the facet normal (a
    orthogonal to ed), and the inward unit normal ed.
    """
    k, dp1, d = pts.shape
    F = pts[:, [j for j in range(dp1) if j != i]]
    ed = g[:, i] / np.linalg.norm(g[:, i], axis=1, keepdims=True)
    A = np.empty((k, d, d))
    A[:, :d - 1] = F[:, 1:] - F[:, :1]
    A[:, d - 1] = ed
    rhs = np.zeros((k, d))
    rhs[:, :d - 1] = Rf[:, 1:] - Rf[:, :1]
    a = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    b = Rf[:, 0] - np.einsum("sd,sd->s", a, F[:, 0])
    return F, a, b, ed


def variant2_field(x, xd, a, b, ed, apex, rho, kappa):
    """Layer field tau_O = s w on the cone of one facet, w = x - apex.

    ``xd`` is the distance of x from the facet plane; pass exact zeros for
    points on the facet. s = (1 - kappa xd)_+ (a.x + b) / rho, so tau_O
    vanishes beyond the cutoff height 1/kappa. Returns ``(s, w, div tau_O)``.
    """
    d = x.shape[-1]
    fac = np.maximum(1.0 - kappa * xd, 0.0)
    rt = np.einsum("pd,pd->p", a, x) + b
    w = x - apex
    div = (fac * (d * rt + np.einsum("pd,pd->p", a, w))
           - kappa * np.einsum("pd,pd->p", w, ed) * rt) / rho
    return fac * rt / rho, w, np.where(fac > 0.0, div, 0.0)


def eta2_terms(mesh: Mesh, R: np.ndarray, r_vals: np.ndarray, sel: np.ndarray,
               degree: int = ETA2_DEGREE, top_degree: int = TOP_DEGREE):
    """(||tau_O||_K^2, ||r + div tau_O||_K^2) for the selected elements.

    Requires kappa > 0 on the selection. Each facet cone is integrated exactly:
    split at the cutoff height 1/kappa when that lies inside the cone, whole
    otherwise.
    """
    d = mesh.dim
    kap = mesh.kappa[sel]
    if np.any(kap == 0):
        raise InvalidVariant("layer reconstruction requires kappa > 0")
    rho = mesh.inradii[sel]
    apex = mesh.incentres[sel]
    cent = mesh.centroids[sel]
    r_bar = r_vals[sel].mean(axis=1)
    grad_r = np.einsum("end,en->ed", mesh.bary_grads[sel], r_vals[sel])
    cut = 1.0 / kap
    split = cut < rho

    first = np.zeros(len(sel))
    second = np.zeros(len(sel))

    def integrate_active(verts, rows, F, a, b, ed):
        p0, a, b, ed = F[rows, 0], a[rows], b[rows], ed[rows]
        ap, rh, kp = apex[rows], rho[rows], kap[rows]
        rb, gr, ce = r_bar[rows], grad_r[rows], cent[rows]

        def integrand(x, lam):
            xd = np.einsum("pd,pd->p", x - p0, ed)
            s, wvec, div_o = variant2_field(x, xd, a, b, ed, ap, rh, kp)
            rx = rb + np.einsum("pd,pd->p", gr, x - ce)
            return np.column_stack([s ** 2 * (wvec ** 2).sum(axis=1), (rx + div_o) ** 2])

        both = integrate_simplices(integrand, verts, simplex_measure(verts), degree)
        first[rows] += both[:, 0]
        second[rows] += both[:, 1]

    def integrate_top(verts, rows):
        rb, gr, ce = r_bar[rows], grad_r[rows], cent[rows]
        second[rows] += integrate_simplices(
            lambda x, lam: (rb + np.einsum("pd,pd->p", gr, x - ce)) ** 2,
            verts, simplex_measure(verts), top_degree)

    pts = mesh.points[mesh.simplices[sel]]
    g = mesh.bary_grads[sel]
    sp = np.flatnonzero(split)
    un = np.flatnonzero(~split)
    for i in range(d + 1):
        F, a, b, ed = _facet_setup(pts, g, R[sel, i], i)
        if len(sp):
            G = F[sp] + (cut[sp] / rho[sp])[:, None, None] * (apex[sp, None, :] - F[sp])
            for j in range(1, d + 1):
                verts = np.concatenate([F[sp, :j], G[:, j - 1:]], axis=1)
                integrate_active(verts, sp, F, a, b, ed)
            integrate_top(np.concatenate([G, apex[sp, None, :]], axis=1), sp)
        if len(un):
            verts = np.concatenate([F[un], apex[un, None, :]], axis=1)
            integrate_active(verts, un, F, a, b, ed)
    return first, second


# ---------------------------------------------------------------------------
# per-element flux objects (pointwise evaluation and analytic divergence)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluxVariant1:
    """grad u_h + tau_L + tau_Q on one element; Rv[m, n] is the residual of
    facet m (opposite local vertex m) at local vertex n."""

    vertices: np.ndarray
    grad_uh: np.ndarray
    c: np.ndarray
    grad_r: np.ndarray
    centroid: np.ndarray
    div_l: float

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lam = locate(self.vertices[None], x)[1]
        pairs = _tau_q_pairs(self.vertices[None], self.grad_r[None])
        return self.grad_uh + variant1_field(lam, self.c[None], pairs)

    def divergence(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.div_l + (self.centroid - x) @ self.grad_r


def build_variant1(vertices, Rv, r_vals, grad_uh=None) -> FluxVariant1:
    """Polynomial reconstruction on one element from local-vertex residual values."""
    vertices = np.asarray(vertices, dtype=float)
    Rv = np.where(np.eye(len(vertices), dtype=bool), 0.0, np.asarray(Rv, dtype=float))
    r_vals = np.asarray(r_vals, dtype=float)
    v1 = _variant1_coeffs(vertices[None], barycentric_gradients(vertices)[None],
                          Rv[None], r_vals[None])
    base = np.zeros(vertices.shape[1]) if grad_uh is None \
        else np.asarray(grad_uh, dtype=float)
    return FluxVariant1(vertices=vertices, grad_uh=base,
                        c=v1.c[0], grad_r=v1.grad_r[0], centroid=vertices.mean(axis=0),
                        div_l=float(v1.div_l[0]))


@dataclass(frozen=True)
class FluxVariant2:
    """grad u_h + tau_O on one element, piecewise on the incentre cones."""

    vertices: np.ndarray
    grad_uh: np.ndarray
    kappa: float
    rho: float
    incentre: np.ndarray
    facet_vertices: np.ndarray   # (d+1, d, d)
    a: np.ndarray                # (d+1, d) in-plane residual gradients
    b: np.ndarray                # (d+1,)
    ed: np.ndarray               # (d+1, d) inward facet normals

    def _locate(self, x):
        apex = np.broadcast_to(self.incentre, (len(self.facet_vertices), 1, len(self.incentre)))
        return locate(np.concatenate([self.facet_vertices, apex], axis=1), x)[0]

    def _tau_o(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        which = self._locate(x)
        xd = np.einsum("pd,pd->p", x - self.facet_vertices[which, 0], self.ed[which])
        return variant2_field(x, xd, self.a[which], self.b[which], self.ed[which],
                              self.incentre, self.rho, self.kappa)

    def __call__(self, x) -> np.ndarray:
        s, w, _ = self._tau_o(x)
        return self.grad_uh + s[:, None] * w

    def divergence(self, x) -> np.ndarray:
        return self._tau_o(x)[2]


def build_variant2(vertices, Rv, kappa: float, grad_uh=None) -> FluxVariant2:
    """Layer reconstruction on one element; requires kappa > 0.

    This variant only needs the facet residuals, so it applies to any
    conforming piecewise-affine approximation, not just the Galerkin solution.
    """
    if kappa <= 0:
        raise InvalidVariant("layer reconstruction requires kappa > 0")
    vertices = np.asarray(vertices, dtype=float)
    Rv = np.asarray(Rv, dtype=float)
    d = vertices.shape[1]
    geom = simplex_geometry(vertices[None])
    F, a, b, ed = (np.concatenate(parts) for parts in zip(*(
        _facet_setup(vertices[None], geom.grads, np.delete(Rv[i], i)[None], i)
        for i in range(d + 1))))
    base = np.zeros(d) if grad_uh is None else np.asarray(grad_uh, dtype=float)
    return FluxVariant2(vertices=vertices, grad_uh=base, kappa=float(kappa),
                        rho=float(geom.inradii[0]), incentre=geom.incentres[0],
                        facet_vertices=F, a=a, b=b, ed=ed)


def eta_K(flux, kappa: float, r_vals) -> float:
    """Single-element layer indicator by quadrature of a FluxVariant2 closure.

    ``flux.grad_uh`` must be set to the element gradient of u_h; ``r_vals`` are
    the vertex values of Pi_K f - kappa^2 u_h. The cones are split with
    split_cone_frustum and the closure located pointwise, a route independent
    of the staircase batches of eta2_terms.
    """
    if not isinstance(flux, FluxVariant2):
        raise TypeError(f"unknown flux object {type(flux)!r}")
    vertices = flux.vertices
    d = vertices.shape[1]
    rule = rule_for(d, ETA2_DEGREE)
    rule_top = rule_for(d, TOP_DEGREE)
    r_vals = np.asarray(r_vals, dtype=float)

    def r_of(x):
        return locate(vertices[None], x)[1] @ r_vals

    first = 0.0
    second = 0.0
    cut = 1.0 / flux.kappa
    for i in range(d + 1):
        if cut < flux.rho:
            pieces, top = split_cone_frustum(flux.facet_vertices[i], flux.incentre, cut)
            tops = [top]
        else:
            pieces, tops = [np.vstack([flux.facet_vertices[i], flux.incentre])], []
        for piece in pieces:
            vol = simplex_measure(piece) * math.factorial(d)
            x = rule.points @ piece
            tau = flux(x) - flux.grad_uh
            first += float(rule.weights @ (tau ** 2).sum(axis=1)) * vol
            resid = r_of(x) + flux.divergence(x)
            second += float(rule.weights @ resid ** 2) * vol
        for piece in tops:
            vol = simplex_measure(piece) * math.factorial(d)
            x = rule_top.points @ piece
            second += float(rule_top.weights @ r_of(x) ** 2) * vol
    return math.sqrt(max(first + second / flux.kappa ** 2, 0.0))


# ---------------------------------------------------------------------------
# normal traces (H(div) conformity checks)
# ---------------------------------------------------------------------------

def facet_trace_values(mesh: Mesh, grad: np.ndarray, v1: Variant1Bulk,
                       R: np.ndarray, variant: np.ndarray):
    """Normal trace of the assembled flux on every (element, facet) pair.

    Returns ``(trace, g_exact)`` of shape (ne, d+1, nq): the flux evaluated at
    the canonical facet quadrature points dotted with the element's outward
    normal, and the equilibrated g_K interpolated at the same points. The
    points are defined on the facet, so they coincide for the two sharing
    elements.
    """
    d = mesh.dim
    rule = rule_for(d - 1, TRACE_DEGREE)
    ne = mesh.n_elements
    pts = mesh.points[mesh.simplices]
    normals = mesh.outward_normals()
    pairs = _tau_q_pairs(pts, v1.grad_r)
    trace = np.empty((ne, d + 1, rule.n_points))
    g_exact = np.empty((ne, d + 1, rule.n_points))
    is2 = (variant == 2)[:, None]
    on_facet = np.zeros(ne)   # normal distance of the trace points, exactly zero
    for i in range(d + 1):
        F, a, b, ed = _facet_setup(pts, mesh.bary_grads, R[:, i], i)
        gn = np.einsum("ed,ed->e", grad, normals[:, i])
        for qi, mu in enumerate(rule.points):
            x = np.einsum("j,fjd->fd", mu, F)
            tau1 = variant1_field(np.insert(mu, i, 0.0)[None], v1.c, pairs)
            s, w, _ = variant2_field(x, on_facet, a, b, ed, mesh.incentres,
                                     mesh.inradii, mesh.kappa)
            tau = grad + np.where(is2, s[:, None] * w, tau1)
            trace[:, i, qi] = np.einsum("ed,ed->e", tau, normals[:, i])
            g_exact[:, i, qi] = R[:, i] @ mu + gn
    return trace, g_exact


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
