"""Reference implementations that the production batched code is checked against."""
import numpy as np

from fluxbound.equilibration import CONSTRAINT_TOL, RANK_TOL
from fluxbound.errors import InfeasibleConstraints
from fluxbound.geometry import NEUMANN


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
