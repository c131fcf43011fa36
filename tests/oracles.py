"""Single-element references that the batched production code is checked against.

* quadrature: ``integrate``/``integrate_facet`` on one simplex or facet;
* geometry: ``locate`` (points to pieces and barycentric coordinates),
  ``vertex_patch`` (the elements sharing one vertex) and ``facet_slots`` /
  ``to_local_vertices`` (facet-vertex data by element vertex, found by search);
* projections and norms: ``project_facet``, ``energy_norm``, ``energy_norm_fe``;
* equilibration: the collapsed extension ``extension``/``ExtensionFunction``,
  its volume terms sub-simplex by sub-simplex
  ``extension_volume_terms_subsimplex``, the patch sign matrices by dense
  comparison ``sign_matrices_dense``, and ``solve_vertex_patch_reference``,
  one vertex patch at a time;
* reconstruction: the variant-1 indicator by quadrature
  ``eta1_terms_quadrature``, the flux closures ``build_variant1``/``FluxVariant1`` and
  ``build_variant2``/``FluxVariant2``, the general layer field
  ``variant2_field`` (cutoff and divergence included), the facet data of the
  layer field by a linear solve per element ``facet_setup_reference``, the
  equilibrated flux at the trace points ``equilibrated_trace``, and the layer
  indicator by other routes: ``eta2_terms_staircase`` (with
  ``split_cone_frustum``), ``eta_K`` and ``eta2_terms_longdouble``, and its
  flux term by a degree-4 facet rule ``eta2_flux_facet_rule``. The flux
  closures and the staircase take their facet data from
  ``facet_setup_reference``, so they cross-check the closed form in
  ``reconstruction._facet_setup``;
* estimator: ``verify_trace_inequality``, trace ratios of random quadratics;
  the data oscillations ``oscillation_f`` and ``oscillation_gN`` by quadrature
  of the data against a given projection, the route the one data pass of
  ``fem._data_pass`` replaced.
"""
import math
from dataclasses import dataclass

import numpy as np

from fluxbound.equilibration import CONSTRAINT_TOL, RANK_TOL
from fluxbound.errors import InfeasibleConstraints, InvalidVariant
from fluxbound.equilibration import EXTENSION_DEGREE
from fluxbound.estimator import trace_constants
from fluxbound.fem import OSC_DEGREE, _mass_inverse_times, _mass_norm_sq, _mass_times, data_values
from fluxbound.geometry import (NEUMANN, facet_vertices, simplex_geometry, simplex_gradients,
                                simplex_measure)
from fluxbound.quadrature import integrate_simplices, rule_for
from fluxbound.reconstruction import (TRACE_DEGREE, _dot, _facet_setup, _flux_moments,
                                      _tau_q_pairs, _variant1_coeffs, variant1_field)

ETA2_DEGREE = 6   # |tau_O|^2 has degree 6 on the active pieces
TOP_DEGREE = 2    # (affine)^2 beyond the cutoff


PROJECTION_DEGREE = 8     # quadrature degree of the single-simplex projections


# ---------------------------------------------------------------------------
# quadrature and geometry on one simplex
# ---------------------------------------------------------------------------

def _integrate(f, vertices: np.ndarray, k: int, degree: int) -> float:
    rule = rule_for(k, degree)
    x = rule.points @ vertices
    vals = np.asarray(f(x), dtype=float)
    return float(rule.weights @ vals) * simplex_measure(vertices) * math.factorial(k)


def integrate(f, vertices, degree: int) -> float:
    """Integrate ``f`` over the full-dimensional simplex with the given vertices.

    ``f`` maps an (nq, d) array of points to (nq,) values; exact when f is a
    polynomial of total degree <= `degree`.
    """
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    if vertices.shape[0] != d + 1:
        raise ValueError("expected d+1 vertices for a d-simplex")
    return _integrate(f, vertices, d, degree)


def integrate_facet(f, vertices, degree: int) -> float:
    """Integrate ``f`` over a (d-1)-simplex facet embedded in R^d (d vertices)."""
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    if vertices.shape[0] != d:
        raise ValueError("expected d vertices for a facet in R^d")
    return _integrate(f, vertices, d - 1, degree)


def locate(simplices, x):
    """Place each point of ``x`` (p, d) in one of ``simplices`` (s, d+1, d).

    Returns ``(which, lam)``: the simplex whose smallest barycentric coordinate
    at the point is largest (the one containing it), and the (p, d+1)
    barycentric coordinates there. The pieces may be thin, so no degeneracy
    check.
    """
    simplices = np.asarray(simplices, dtype=float)
    g = simplex_gradients(simplices)
    lam = np.einsum("snd,psd->psn", g, x[:, None, :] - simplices[None, :, 0])
    lam[:, :, 0] += 1.0
    which = lam.min(axis=2).argmax(axis=1)
    return which, lam[np.arange(len(x)), which]


def vertex_patch(mesh, v: int):
    """(element ids, local vertex indices) of the elements sharing vertex v."""
    lo, hi = mesh._vertex_elem_offsets[v], mesh._vertex_elem_offsets[v + 1]
    data = mesh._vertex_elem_data[lo:hi]
    return data[:, 0], data[:, 1]


def facet_slots(mesh) -> np.ndarray:
    """slot[e, i, n]: position of the global vertex simplices[e, n] within facet
    elem_facets[e, i], found by counting its smaller facet vertex ids; -1 on the
    diagonal, where the vertex is not on the facet."""
    fverts = mesh.facets[mesh.elem_facets]                            # (ne, d+1, d)
    slot = (fverts[:, :, None, :] < mesh.simplices[:, None, :, None]).sum(axis=3)
    diag = np.arange(mesh.dim + 1)
    slot[:, diag, diag] = -1
    return slot


def to_local_vertices(mesh, vals) -> np.ndarray:
    """out[e, i, n]: the (ne, d+1, d) facet-vertex data ``vals[e, i]`` at local
    vertex n, gathered through ``facet_slots``; zero on the diagonal."""
    slot = facet_slots(mesh)
    out = np.take_along_axis(vals, np.clip(slot, 0, mesh.dim - 1), axis=2)
    return np.where(slot >= 0, out, 0.0)


# ---------------------------------------------------------------------------
# projections and energy norms
# ---------------------------------------------------------------------------

def project_facet(g, vertices) -> np.ndarray:
    """Facet-vertex values of the L2(gamma)-orthogonal projection onto affine functions.

    Works on any k-simplex given by its k+1 vertices.
    """
    vertices = np.asarray(vertices, dtype=float)
    k = len(vertices) - 1
    rule = rule_for(k, PROJECTION_DEGREE)
    x = rule.points @ vertices
    meas = simplex_measure(vertices)
    rhs = (rule.weights[:, None] * rule.points * np.asarray(g(x))[:, None]).sum(axis=0)
    rhs *= meas * math.factorial(k)
    return _mass_inverse_times(rhs, meas, k)


def energy_norm(mesh, v, grad_v, degree: int) -> float:
    """Energy norm sqrt(sum_K int |grad v|^2 + kappa_K^2 v^2) by quadrature.

    ``grad_v`` maps (n, d) points to (n, d) gradients.
    """
    k2 = mesh.kappa ** 2
    sq = integrate_simplices(
        lambda x, lam: (np.asarray(grad_v(x)) ** 2).sum(axis=1) + k2 * np.asarray(v(x)) ** 2,
        mesh.points[mesh.simplices], mesh.volumes, degree)
    return math.sqrt(max(float(sq.sum()), 0.0))


def energy_norm_fe(sol) -> float:
    """Exact energy norm of a P1 finite element function."""
    mesh = sol.mesh
    uloc = sol.u[mesh.simplices]
    grad_part = (sol.grad ** 2).sum(axis=1) * mesh.volumes
    mass_part = mesh.kappa ** 2 * _mass_norm_sq(uloc, mesh.volumes, mesh.dim)
    return math.sqrt(max(float((grad_part + mass_part).sum()), 0.0))


# ---------------------------------------------------------------------------
# approximate minimum-energy extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionFunction:
    """The hat function of vertex n, or its collapsed piecewise-affine extension.

    For kappa * rho > 1 the interior value is pulled to zero at a point x_P
    close to vertex n (barycentric delta = min(1, 1/(kappa*rho))/d on the other
    vertices), making the support of the gradient a layer of width ~ 1/kappa.
    The extension agrees with the plain hat on the element boundary.
    """

    vertices: np.ndarray
    vertex_index: int
    kappa: float
    plain: bool
    delta: float | None = None
    x_p: np.ndarray | None = None
    subsimplices: np.ndarray | None = None   # (d+1, d+1, d), x_P is the last vertex
    subvalues: np.ndarray | None = None      # (d+1, d+1)

    def evaluate(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.plain:
            return locate(self.vertices[None], x)[1][:, self.vertex_index]
        which, lam = locate(self.subsimplices, x)
        return np.einsum("pn,pn->p", lam, self.subvalues[which])

    def l2_norm_sq(self) -> float:
        """int_K (theta*)^2, exact (the integrand is piecewise quadratic)."""
        d = self.vertices.shape[1]
        if self.plain:
            return float(_mass_norm_sq(np.eye(d + 1)[self.vertex_index],
                                       simplex_measure(self.vertices), d))
        return float(_mass_norm_sq(self.subvalues, simplex_measure(self.subsimplices), d).sum())


def extension(vertices, kappa: float, n: int) -> ExtensionFunction:
    """Approximate minimum-energy extension of the hat of local vertex n."""
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    inradius = simplex_geometry(vertices[None]).inradii[0]
    if kappa * inradius <= 1.0:
        return ExtensionFunction(vertices=vertices, vertex_index=n, kappa=kappa, plain=True)
    delta = min(1.0, 1.0 / (kappa * inradius)) / d
    coeff = np.full(d + 1, delta)
    coeff[n] = 1.0 - d * delta
    x_p = coeff @ vertices
    subs = np.empty((d + 1, d + 1, d))
    vals = np.zeros((d + 1, d + 1))
    hat = np.zeros(d + 1)
    hat[n] = 1.0
    for i in range(d + 1):
        subs[i, :d] = np.delete(vertices, i, axis=0)
        subs[i, d] = x_p
        vals[i, :d] = np.delete(hat, i)
    return ExtensionFunction(vertices=vertices, vertex_index=n, kappa=kappa, plain=False,
                             delta=delta, x_p=x_p, subsimplices=subs, subvalues=vals)


def extension_volume_terms_subsimplex(mesh, sol, sel):
    """``equilibration._extension_volume_terms`` one sub-simplex S_i(n) at a time.

    On each S_i(n), i != n: int f theta* by the EXTENSION_DEGREE rule, called
    once per node, minus kappa^2 int u_h theta* by the P1 mass matrix of
    S_i(n), added up over i.
    """
    d = mesh.dim
    pts = mesh.points[mesh.simplices[sel]]            # (k, d+1, d)
    uloc = sol.u[mesh.simplices[sel]]
    k2 = mesh.kappa[sel] ** 2
    delta = 1.0 / (d * mesh.kappa[sel] * mesh.inradii[sel])  # kappa*rho > 1 on sel
    svol = delta * mesh.volumes[sel]   # |S_i| = lambda_i(x_P) |K| for every i != n
    out = np.zeros((len(sel), d + 1))
    others = facet_vertices(d)
    for n in range(d + 1):
        coeff = np.full((len(sel), d + 1), delta[:, None])
        coeff[:, n] = 1.0 - d * delta
        x_p = np.einsum("kj,kjd->kd", coeff, pts)
        u_p = np.einsum("kj,kj->k", coeff, uloc)
        for i in range(d + 1):
            if i == n:
                continue   # theta* vanishes on the subsimplex opposite its vertex
            keep = others[i]
            sverts = np.concatenate([pts[:, keep], x_p[:, None, :]], axis=1)
            local_slot = n - (n > i)   # the position of n in others[i]
            su = np.concatenate([uloc[:, keep], u_p[:, None]], axis=1)
            ft = integrate_simplices(
                lambda x, lam: data_values(sol.data.f, x, "f") * lam[local_slot],
                sverts, svol, EXTENSION_DEGREE)
            mass = k2 * _mass_times(su, svol[:, None], d)[:, local_slot]
            out[:, n] += ft - mass
    return out


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
        pairs = _tau_q_pairs(self.vertices.T[:, :, None], self.grad_r[None])
        return self.grad_uh + variant1_field(lam, self.c[None], pairs)

    def divergence(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.div_l + (self.centroid - x) @ self.grad_r


def build_variant1(vertices, Rv, r_vals, grad_uh=None) -> FluxVariant1:
    """Polynomial reconstruction on one element from local-vertex residual values."""
    vertices = np.asarray(vertices, dtype=float)
    Rv = np.where(np.eye(len(vertices), dtype=bool), 0.0, np.asarray(Rv, dtype=float))
    r_vals = np.asarray(r_vals, dtype=float)
    v1 = _variant1_coeffs(vertices[None], simplex_geometry(vertices[None]).grads,
                          Rv[None], r_vals[None])
    base = np.zeros(vertices.shape[1]) if grad_uh is None \
        else np.asarray(grad_uh, dtype=float)
    return FluxVariant1(vertices=vertices, grad_uh=base,
                        c=v1.c[0], grad_r=v1.grad_r[0], centroid=vertices.mean(axis=0),
                        div_l=float(v1.div_l[0]))


def eta1_terms_quadrature(mesh, v1, degree: int):
    """``reconstruction.eta1_terms`` by quadrature of |tau_L + tau_Q|^2 (degree 4)
    at the given degree, the field evaluated node by node."""
    pairs = _tau_q_pairs(mesh.points.T[:, mesh.simplices.T], v1.grad_r)

    def integrand(x, lam):
        field = variant1_field(lam[None], v1.c, pairs)
        return np.einsum("ed,ed->e", field, field)

    first = integrate_simplices(integrand, mesh.points[mesh.simplices], mesh.volumes, degree)
    return first, v1.div_l + v1.r_bar


def facet_setup_reference(pts, g, Rf, i: int):
    """``reconstruction._facet_setup`` by a linear solve per element.

    a is found from d equations: a.(F_j - F_0) = Rf_j - Rf_0 along the facet
    edges and a.ed = 0 across the facet; then b = Rf_0 - a.F_0.
    """
    k, _, d = pts.shape
    F = pts[:, facet_vertices(d)[i]]
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
        facet_setup_reference(vertices[None], geom.grads, np.delete(Rv[i], i)[None], i)
        for i in range(d + 1))))
    base = np.zeros(d) if grad_uh is None else np.asarray(grad_uh, dtype=float)
    return FluxVariant2(vertices=vertices, grad_uh=base, kappa=float(kappa),
                        rho=float(geom.inradii[0]), incentre=geom.incentres[0],
                        facet_vertices=F, a=a, b=b, ed=ed)


def equilibrated_trace(mesh, R, grad) -> np.ndarray:
    """(ne, d+1, nq) g_K = R + grad u_h . n_K at the facet points of ``facet_trace_values``.

    ``R`` (ne, d+1, d) holds the facet residuals at the facet vertices, so g_K
    is interpolated from them, independently of the flux fields.
    """
    rule = rule_for(mesh.dim - 1, TRACE_DEGREE)
    gn = np.einsum("ed,eid->ei", grad, mesh.outward_normals())
    return R @ rule.points.T + gn[:, :, None]


# ---------------------------------------------------------------------------
# trace inequalities
# ---------------------------------------------------------------------------

def verify_trace_inequality(vertices, kappa: float, samples: int,
                            rng: np.random.Generator):
    """Max observed trace ratios over random quadratic polynomials, per facet.

    Returns ``(max_plain, max_mean_free, geometry)``: arrays over the d+1
    facets of max ||v||_gamma / |||v|||_K (zero entries when kappa = 0, where
    the inequality is not stated) and max ||v - mean_gamma v||_gamma / |||v|||_K,
    and the ``simplex_geometry`` of the simplex (a batch of one). Each entry
    must stay below the corresponding closed-form constant.
    """
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    q = simplex_geometry(vertices[None])
    rule_k = rule_for(d, 4)
    rule_f = rule_for(d - 1, 4)
    xk = rule_k.points @ vertices
    coef = rng.standard_normal((samples, 1 + d + d * d))

    def eval_v(x):
        quad = np.einsum("sij,pi,pj->sp", coef[:, 1 + d:].reshape(samples, d, d), x, x)
        return coef[:, :1] + coef[:, 1:1 + d] @ x.T + quad

    def eval_grad_sq(x):
        qmat = coef[:, 1 + d:].reshape(samples, d, d)
        g = coef[:, None, 1:1 + d] + np.einsum("sij,pj->spi", qmat + qmat.transpose(0, 2, 1), x)
        return (g ** 2).sum(axis=2)

    vk = eval_v(xk)
    energy2 = ((eval_grad_sq(xk) + kappa ** 2 * vk ** 2) @ rule_k.weights
               * q.volumes[0] * math.factorial(d))
    max_plain = np.zeros(d + 1)
    max_freed = np.zeros(d + 1)
    for i in range(d + 1):
        fverts = np.delete(vertices, i, axis=0)
        meas = q.facet_measures[0, i]
        xf = rule_f.points @ fverts
        vf = eval_v(xf)
        w = rule_f.weights * meas * math.factorial(d - 1)
        norm2 = vf ** 2 @ w
        mean = (vf @ w) / meas
        freed2 = ((vf - mean[:, None]) ** 2) @ w
        if kappa > 0:
            max_plain[i] = float(np.sqrt(norm2 / energy2).max())
        max_freed[i] = float(np.sqrt(freed2 / energy2).max())
    return max_plain, max_freed, q


# ---------------------------------------------------------------------------
# vertex patches and the layer indicator
# ---------------------------------------------------------------------------

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


def sign_matrices_dense(mesh, els, unknown) -> np.ndarray:
    """``equilibration._sign_matrices`` by comparing every element facet with
    every unknown facet of its patch: (n, k, nu) int8."""
    fac = mesh.elem_facets[els]
    return (mesh.elem_sigma[els][..., None] * (fac[..., None] == unknown[:, None, None, :])
            ).sum(axis=2, dtype=np.int8)


def solve_vertex_patch_reference(mesh, v: int, resid):
    """Coefficients for the non-Neumann facets containing vertex v, one vertex at a time.

    Returns ``(facet_ids, alphas, info)``; info carries the constraint residual
    and objective value for diagnostics. Raises InfeasibleConstraints when the
    equality constraints cannot be met.
    """
    els, locs = vertex_patch(mesh, v)
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

    cons = ~mesh.layer[els]
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
    grads = simplex_geometry(np.vstack([f, apex])[None]).grads[0]
    height = 1.0 / np.linalg.norm(grads[d])   # altitude d |K| / |gamma| of the apex
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
        F, a, b, ed = facet_setup_reference(pts, g, R[sel, i], i)
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


def eta2_flux_facet_rule(mesh, R, r_vals, sel):
    """The flux term ||tau_O||_K^2 of ``reconstruction.eta2_terms`` by a facet rule.

    The t-integrated integrand (c0 + c1 D + m2 D^2) |y - apex|^2 of each cone,
    a quartic along the facet, evaluated at the nodes of the degree-4 facet
    rule, with the facet data of ``_facet_setup`` and the t-moments of
    ``reconstruction._flux_moments``.
    """
    d = mesh.dim
    rho = mesh.inradii[sel]
    q = mesh.kappa[sel] * rho
    m0, m1, m2 = _flux_moments(q, rho, np.minimum(1.0, 1.0 / q), d)
    pts = mesh.points[mesh.simplices[sel]]
    apex_c = np.ascontiguousarray(mesh.incentres[sel].T)
    first = np.zeros(len(sel))
    for i in range(d + 1):
        F, a, b, _ = _facet_setup(pts, mesh.bary_grads[sel], R[sel, i], i)
        a_c = np.ascontiguousarray(a.T)
        A0 = _dot(a_c, apex_c) + b
        c0, c1 = m0 * A0 * A0, 2.0 * m1 * A0

        def integrand(x, lam):
            w = x.T - apex_c
            D = _dot(a_c, w)
            return (c0 + (c1 + m2 * D) * D) * _dot(w, w)

        first += integrate_simplices(integrand, F, mesh.facet_measures[mesh.elem_facets[sel, i]], 4)
    return first


def eta2_terms_longdouble(mesh, R, r_vals, sel):
    """The layer indicator's cone integrand in np.longdouble from the float64 inputs.

    Takes the facet data from ``_facet_setup``, the degree-4 facet rule and
    ceil((d+6)/2) Gauss-Legendre nodes in t on [0, t0] and on [t0, 1] (enough
    for every term) as float64 values and evaluates the cone integrand
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


# ---------------------------------------------------------------------------
# data oscillations by quadrature against a given projection
# ---------------------------------------------------------------------------

def oscillation_f(mesh, f, proj: np.ndarray, degree: int = OSC_DEGREE) -> np.ndarray:
    """osc_K(f) = min(h_K/pi, 1/kappa_K) ||f - Pi_K f||_K per element.

    ``proj`` (ne, d+1) holds the vertex values of Pi_K f, the projection that
    enters the divergence residual.
    """
    sq = integrate_simplices(lambda x, lam: (data_values(f, x, "f") - proj @ lam) ** 2,
                             mesh.points[mesh.simplices], mesh.volumes, degree)
    norm = np.sqrt(np.maximum(sq, 0.0))
    with np.errstate(divide="ignore"):   # 1/kappa = inf where kappa = 0
        weight = np.minimum(mesh.diameters / math.pi, 1.0 / mesh.kappa)
    return weight * norm


def oscillation_gN(mesh, g_N, proj: np.ndarray) -> np.ndarray:
    """(nf,) per-facet osc_gamma(g_N); nonzero only on Neumann facets.

    ``proj`` (nf, d) holds facet-vertex values whose Neumann rows are the
    L2(gamma) projection Pi_gamma g_N, as in ``BoundaryFluxSet.gplus``.
    """
    out = np.zeros(mesh.n_facets)
    if g_N is None:
        return out
    neu = mesh.neumann
    pn = proj[neu]
    sq = integrate_simplices(lambda x, lam: (data_values(g_N, x, "g_N") - pn @ lam) ** 2,
                             mesh.points[mesh.facets[neu]], mesh.facet_measures[neu],
                             OSC_DEGREE)
    e = mesh.facet_elems[neu, 0]
    tc = trace_constants(mesh.dim, mesh.diameters[e], mesh.volumes[e],
                         mesh.facet_measures[neu], mesh.kappa[e])
    out[neu] = np.sqrt(tc.min2) * np.sqrt(np.maximum(sq, 0.0))
    return out
