"""Reference implementations that the production batched code is checked against."""
import math

import numpy as np

from fluxbound.equilibration import CONSTRAINT_TOL, RANK_TOL
from fluxbound.errors import InfeasibleConstraints, InvalidVariant
from fluxbound.geometry import NEUMANN, geometric_quantities, locate, simplex_measure
from fluxbound.quadrature import integrate_simplices, rule_for
from fluxbound.reconstruction import FluxVariant2, _facet_setup, variant2_field

ETA2_DEGREE = 6   # |tau_O|^2 has degree 6 on the active pieces
TOP_DEGREE = 2    # (affine)^2 beyond the cutoff


def _min_norm_lstsq(A: np.ndarray, b: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Minimal-norm least squares with the rank cutoff floored at `floor`.

    The floor matters in the reduced problem E Z: when an objective row lies in
    the constraint row space, E Z is pure round-off noise and a cutoff relative
    to its own largest singular value would happily invert it, producing a huge
    coefficient vector that wrecks the constraints.
    """
    if A.size == 0:
        return np.zeros(A.shape[1])
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = RANK_TOL * max(s[0] if len(s) else 0.0, floor)
    keep = s > cutoff
    if not np.any(keep):
        return np.zeros(A.shape[1])
    return vt[keep].T @ ((u[:, keep].T @ b) / s[keep])


def solve_vertex_patch_reference(mesh, v: int, resid):
    """Coefficients for the non-Neumann facets containing vertex v, one vertex at a time.

    Returns ``(facet_ids, alphas, info)``; info carries the constraint residual
    and objective value for diagnostics. Raises InfeasibleConstraints when the
    equality constraints cannot be met.
    """
    els, locs = mesh.vertex_patch(v)
    fids, _ = mesh.vertex_facets(v)
    unknown = fids[mesh.facet_tag[fids] != NEUMANN]
    nu = len(unknown)
    k = len(els)
    if k == 0:
        return unknown, np.zeros(nu), (0, nu, 0.0, 0.0)

    fac = mesh.elem_facets[els]
    sig = mesh.elem_sigma[els]
    keep = np.ones_like(fac, dtype=bool)
    keep[np.arange(k), locs] = False
    keep &= mesh.facet_tag[fac] != NEUMANN
    M = np.zeros((k, nu))
    rr, cc = np.nonzero(keep)
    M[rr, np.searchsorted(unknown, fac[rr, cc])] = sig[rr, cc]

    cons = resid.kapparho[els] <= 1.0
    C, c = M[cons], -resid.D[els[cons], locs[cons]]
    E, e = M[~cons], -resid.Dstar[els[~cons], locs[~cons]]
    scale = float(resid.scale[els, locs].max()) if k else 0.0
    tol = CONSTRAINT_TOL * max(scale, 1e-300)

    if nu == 0:
        bad = np.abs(c).max() if len(c) else 0.0
        if bad > tol:
            raise InfeasibleConstraints(
                f"vertex {v}: constraint residual {bad:.3e} with no free coefficients")
        return unknown, np.zeros(0), (len(c), 0, 0.0, float(bad))

    if len(c) == 0:
        alpha = _min_norm_lstsq(E, e) if len(e) else np.zeros(nu)
        obj = float(np.sum((E @ alpha - e) ** 2)) if len(e) else 0.0
        return unknown, alpha, (0, nu, obj, 0.0)

    u_svd, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0])) if len(s) and s[0] > 0 else 0
    if rank:
        alpha0 = vt[:rank].T @ ((u_svd[:, :rank].T @ c) / s[:rank])
    else:
        alpha0 = np.zeros(nu)
    res = float(np.abs(C @ alpha0 - c).max())
    if res > tol:
        raise InfeasibleConstraints(
            f"vertex {v}: equality-constraint residual {res:.3e} exceeds {tol:.3e}")
    Z = vt[rank:].T
    if len(e) and Z.shape[1]:
        beta = _min_norm_lstsq(E @ Z, e - E @ alpha0,
                               floor=float(np.linalg.norm(E, 2)))
        alpha = alpha0 + Z @ beta
        res = float(np.abs(C @ alpha - c).max())
        if res > tol:
            raise InfeasibleConstraints(
                f"vertex {v}: constraints degraded to {res:.3e} by the objective step")
    else:
        alpha = alpha0
    obj = float(np.sum((E @ alpha - e) ** 2)) if len(e) else 0.0
    return unknown, alpha, (len(c), nu, obj, res)


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


def eta2_terms_staircase(mesh, R, r_vals, sel, degree=ETA2_DEGREE, top_degree=TOP_DEGREE):
    """(||tau_O||_K^2, ||r + div tau_O||_K^2) for the selected elements.

    Requires kappa > 0 on the selection. Each facet cone is integrated exactly:
    split at the cutoff height 1/kappa when that lies inside the cone (the
    frustum triangulated into d staircase simplices plus the top cone), whole
    otherwise. An independent route to ``eta2_terms``.
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


def eta_K(flux, kappa: float, r_vals) -> float:
    """Single-element layer indicator by quadrature of a FluxVariant2 closure.

    ``flux.grad_uh`` must be set to the element gradient of u_h; ``r_vals`` are
    the vertex values of Pi_K f - kappa^2 u_h. The cones are split with
    split_cone_frustum and the closure located pointwise, a route independent
    of eta2_terms and of the staircase batches of eta2_terms_staircase.
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



def eta2_terms_longdouble(mesh, R, r_vals, sel):
    """``eta2_terms`` evaluated in np.longdouble from the same float64 inputs and nodes.

    Takes the facet data from ``_facet_setup``, the degree-4 facet rule and the
    Gauss-Legendre nodes in t as float64 values and evaluates the cone integrand
    x = apex + t (y - apex), dx = rho t^(d-1) dt dy, written out term by term in
    extended precision, so that its distance from a float64 route measures that
    route's round-off.
    """
    ld = np.longdouble
    d = mesh.dim
    kap = mesh.kappa[sel].astype(ld)
    rho = mesh.inradii[sel].astype(ld)
    apex = mesh.incentres[sel].astype(ld)
    rv = r_vals[sel].astype(ld)
    grad_r = np.einsum("end,en->ed", mesh.bary_grads[sel].astype(ld), rv)
    r_apex = rv.mean(axis=1) + ((apex - mesh.centroids[sel].astype(ld)) * grad_r).sum(axis=1)
    q = kap * rho
    h = np.minimum(ld(1), ld(1) / q)
    t0 = ld(1) - h
    xi, wi = (v.astype(ld) for v in np.polynomial.legendre.leggauss(math.ceil((d + 6) / 2)))
    rule = rule_for(d - 1, 4)
    pts = mesh.points[mesh.simplices[sel]]
    first = np.zeros(len(sel), dtype=ld)
    second = np.zeros(len(sel), dtype=ld)
    for i in range(d + 1):
        F, a, b, _ = _facet_setup(pts, mesh.bary_grads[sel], R[sel, i], i)
        F, a, b = F.astype(ld), a.astype(ld), b.astype(ld)
        meas = mesh.facet_measures[mesh.elem_facets[sel, i]].astype(ld) * math.factorial(d - 1)
        A0 = (a * apex).sum(axis=1) + b
        for lam, wf in zip(rule.points.astype(ld), rule.weights.astype(ld)):
            w = np.einsum("j,ejd->ed", lam, F) - apex
            D = (a * w).sum(axis=1)
            G = (grad_r * w).sum(axis=1)
            for x, wq in zip(xi, wi):
                # [0, t0], then [t0, 1] with 1 - t = h (1 - x) / 2 formed directly
                for length, s, active in ((t0, 1 - t0 * (1 + x) / 2, False),
                                          (h, h * (1 - x) / 2, True)):
                    t = 1 - s
                    jac = wf * meas * length * wq / 2 * rho * t ** (d - 1)
                    rt = A0 + t * D
                    resid = r_apex + t * G
                    if active:
                        fac = 1 - q * s
                        first += jac * fac ** 2 * t ** 2 * rt ** 2 * (w ** 2).sum(axis=1) / rho ** 2
                        resid = resid + (fac * (d * rt + t * D) + q * t * rt) / rho
                    second += jac * resid ** 2
    return first, second
