"""Assembly of the guaranteed energy-norm error bound.

The total estimator is

    eta^2 = sum_K [ eta_K + osc_K(f) + sum_{gamma in Gamma_N of K} osc_gamma(g_N) ]^2

with eta_K built from one of the two flux reconstructions. Two per-element
selection strategies are provided: 'tau' picks the polynomial variant where
kappa*rho <= 1 and the layer variant elsewhere; 'taustar' additionally computes
both indicators and keeps the smaller one (the polynomial variant is mandatory
where kappa = 0, where its divergence condition is required for the bound).
Both choices give guaranteed upper bounds up to round-off.

The oscillation terms weight the squared norms ||f - Pi_K f||_K^2 and
||g_N - Pi_gamma g_N||_gamma^2 that the solve's data pass carries on
``FemSolution``; the estimate evaluates no data except f at the nodes of the
collapsed extensions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibration import equilibrate
from .errors import ConformityAuditFailed, NegativeDifference, UnsolvableProblem
from .fem import FemSolution, ProblemData, project_element_bulk
from .geometry import Mesh
from .quadrature import integrate_simplices
from . import reconstruction as rec

STRATEGIES = ("tau", "taustar", "both")
TRUE_ERROR_DEGREE = 10


# ---------------------------------------------------------------------------
# trace constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceConstants:
    """Squared constants of the two facet trace inequalities, per (simplex, facet).

    ``ct2`` bounds ||v||_gamma^2 / |||v|||_K^2 (inf where kappa = 0, where that
    inequality is not stated); ``cbar2`` bounds ||v - mean_gamma v||_gamma^2 /
    |||v|||_K^2. ``min2`` = the smaller of the two, the weight of the Neumann
    data oscillation.
    """

    ct2: np.ndarray
    cbar2: np.ndarray

    @property
    def min2(self) -> np.ndarray:
        return np.minimum(self.ct2, self.cbar2)


def trace_constants(d: int, h, volume, facet_measure, kappa) -> TraceConstants:
    """Closed-form trace constants of d-simplices w.r.t. one facet each.

    The diameters ``h``, volumes, facet measures and kappas broadcast as arrays.
    """
    kappa = np.asarray(kappa, dtype=float)
    ratio = facet_measure / (d * volume)
    with np.errstate(divide="ignore"):   # 1/kappa = inf where kappa = 0
        ct2 = ratio / kappa * np.hypot(2 * h, d / kappa)
        m = np.minimum(h / math.pi, 1.0 / kappa)
    cbar2 = ratio * m * (2 * h + d * m)
    return TraceConstants(ct2=ct2, cbar2=cbar2)


# ---------------------------------------------------------------------------
# data oscillation
# ---------------------------------------------------------------------------

def oscillation_f(mesh: Mesh, sol: FemSolution) -> np.ndarray:
    """osc_K(f) = min(h_K/pi, 1/kappa_K) ||f - Pi_K f||_K per element.

    Pi_K f is the projection that enters the divergence residual; the norms
    are ``sol.f_osc_sq``, from the data pass of the solve.
    """
    with np.errstate(divide="ignore"):   # 1/kappa = inf where kappa = 0
        weight = np.minimum(mesh.diameters / math.pi, 1.0 / mesh.kappa)
    return weight * np.sqrt(np.maximum(sol.f_osc_sq, 0.0))


def oscillation_gN(mesh: Mesh, sol: FemSolution) -> np.ndarray:
    """(nf,) per-facet osc_gamma(g_N); nonzero only on Neumann facets.

    The norms are ``sol.gn_osc_sq``, of g_N - Pi_gamma g_N for the projection
    that the Neumann rows of ``BoundaryFluxSet.gplus`` hold.
    """
    out = np.zeros(mesh.n_facets)
    neu = mesh.neumann
    e = mesh.facet_elems[neu, 0]
    tc = trace_constants(mesh.dim, mesh.diameters[e], mesh.volumes[e],
                         mesh.facet_measures[neu], mesh.kappa[e])
    out[neu] = np.sqrt(tc.min2) * np.sqrt(np.maximum(sol.gn_osc_sq, 0.0))
    return out


# ---------------------------------------------------------------------------
# the error report
# ---------------------------------------------------------------------------

@dataclass
class ErrorReport:
    """Per-element indicators, totals, and audits."""

    strategy: str
    eta_k_tau: np.ndarray | None        # per-element eta_K of the tau selection
    eta_k_taustar: np.ndarray | None
    variant_tau: np.ndarray | None      # 1 or 2 per element
    variant_taustar: np.ndarray | None
    osc_f: np.ndarray                   # per element
    osc_gn: np.ndarray                  # per element (sum over its Neumann facets)
    eta_tau: float | None
    eta_taustar: float | None
    ndof: int = 0
    solver_iterations: int = 0
    audits: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def conv(x):
            if isinstance(x, np.ndarray):
                return x.tolist()
            return x
        return {k: conv(v) for k, v in self.__dict__.items()}

    def dump_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)


def _total(eta_k, osc_f, osc_gn) -> float:
    return float(np.sqrt(((eta_k + osc_f + osc_gn) ** 2).sum()))


def estimate(mesh: Mesh, sol: FemSolution, data: ProblemData,
             strategy: str = "both", *, check_conformity: bool = False,
             patch_report_path: str | None = None) -> ErrorReport:
    """Equilibrate, reconstruct, and evaluate the guaranteed error bound.

    The problem is the one ``sol`` carries: ``mesh`` and ``data`` must be
    ``sol.mesh`` and ``sol.data``, or ValueError is raised. ``strategy`` is
    'tau', 'taustar' or 'both'. ``check_conformity`` audits the normal traces of
    the reported selections; a mismatch above AUDIT_TOL raises ConformityAuditFailed.
    A reported total that is not finite (data that overflow) raises UnsolvableProblem.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if mesh is not sol.mesh or data != sol.data:
        raise ValueError("estimate needs the mesh and data that sol was solved with")
    fluxes = equilibrate(mesh, sol, patch_report_path=patch_report_path)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf_vals = project_element_bulk(mesh, sol.f_loads)
    u_loc = sol.u[mesh.simplices]
    r_vals = pf_vals - mesh.kappa[:, None] ** 2 * u_loc

    v1 = rec.variant1_bulk(mesh, R, r_vals)
    eta1_first, resid_const = rec.eta1_terms(mesh, v1)
    audit_worst = rec.divergence_audit(mesh, resid_const, pf_vals, u_loc)
    pos = mesh.kappa > 0
    second = np.zeros(mesh.n_elements)
    over = mesh.layer
    second[over] = (mesh.volumes[over] * resid_const[over] ** 2
                    / mesh.kappa[over] ** 2)
    eta1_sq = eta1_first + second   # divergence term only counted where kappa*rho > 1

    need2 = over if strategy == "tau" else pos
    sel = np.flatnonzero(need2)
    eta2_sq = np.full(mesh.n_elements, np.inf)
    if len(sel):
        first2, second2 = rec.eta2_terms(mesh, R, r_vals, sel)
        eta2_sq[sel] = first2 + second2 / mesh.kappa[sel] ** 2

    osc_f = oscillation_f(mesh, sol)
    osc_gn = np.zeros(mesh.n_elements)
    if sol.data.g_N is not None:   # homogeneous Neumann data oscillate nowhere
        neu = mesh.neumann
        np.add.at(osc_gn, mesh.facet_elems[neu, 0], oscillation_gN(mesh, sol)[neu])

    report = ErrorReport(
        strategy=strategy, eta_k_tau=None, eta_k_taustar=None,
        variant_tau=None, variant_taustar=None,
        osc_f=osc_f, osc_gn=osc_gn, eta_tau=None, eta_taustar=None,
        ndof=sol.ndof, solver_iterations=sol.iterations,
        audits={"divergence_residual": audit_worst,
                "equilibration_residual": fluxes.eps_max_rel},
    )

    variant_tau = np.where(over, 2, 1).astype(np.int8)
    if strategy in ("tau", "both"):
        eta_k = np.sqrt(np.where(over, eta2_sq, eta1_sq))
        report.eta_k_tau = eta_k
        report.variant_tau = variant_tau
        report.eta_tau = _total(eta_k, osc_f, osc_gn)
    if strategy in ("taustar", "both"):
        pick2 = pos & (eta2_sq < eta1_sq)
        eta_k = np.sqrt(np.where(pick2, eta2_sq, eta1_sq))
        report.eta_k_taustar = eta_k
        report.variant_taustar = np.where(pick2, 2, 1).astype(np.int8)
        report.eta_taustar = _total(eta_k, osc_f, osc_gn)
    if not all(math.isfinite(t) for t in (report.eta_tau, report.eta_taustar) if t is not None):
        raise UnsolvableProblem("the error bound is not finite: the data overflow in floating point")

    if check_conformity:   # every reported selection, each field evaluated once
        picks = [v for v in (report.variant_tau, report.variant_taustar) if v is not None]
        traces = rec.facet_trace_values(mesh, sol.grad, v1, R, np.stack(picks))
        scale = np.maximum(1.0, np.abs(fluxes.gplus).max(axis=1))
        # np.max keeps a NaN, which the builtin max may drop
        worst = float(np.max([rec.trace_mismatch(mesh, t, scale) for t in traces]))
        if not worst <= rec.AUDIT_TOL:     # a NaN fails too
            raise ConformityAuditFailed(
                f"normal-trace mismatch {worst:.3e} (scaled) exceeds {rec.AUDIT_TOL:g}")
        report.audits["hdiv_mismatch"] = worst
    return report


def energy_error(sol: FemSolution, energy2: float) -> float:
    """|||u - u_h||| from the energies: sqrt(F(u) - 2 F(u_h) + |||u_h|||^2).

    This is the Pythagoras difference |||u|||^2 - |||u_h|||^2 under exact
    Galerkin orthogonality; ``energy2`` is the analytic value of F(u). Exact up
    to round-off and free of boundary-layer quadrature error; raises
    NegativeDifference when the radicand is negative beyond round-off.
    """
    radicand = float(energy2) - 2.0 * sol.compliance + sol.energy2
    if radicand < -1e-12 * max(abs(float(energy2)), 1.0):
        raise NegativeDifference(
            f"energy-difference radicand {radicand:.3e} is negative beyond round-off")
    return math.sqrt(max(radicand, 0.0))


def true_error(mesh: Mesh, sol: FemSolution, exact):
    """Energy-norm error by two routes: direct quadrature and energy differences.

    Route (a) integrates |grad(u - u_h)|^2 + kappa^2 (u - u_h)^2 elementwise
    at degree TRUE_ERROR_DEGREE. Route (b) is ``energy_error`` and needs
    ``exact.energy2``. Returns (a, b); b is None when energy2 is unavailable.
    """
    u_of = exact.value
    gu_of = exact.gradient

    # evaluate u_h and its gradient elementwise at quadrature points
    uloc = sol.u[mesh.simplices]
    k2 = mesh.kappa ** 2

    def integrand(x, lam):
        du = np.asarray(gu_of(x)) - sol.grad
        dv = np.asarray(u_of(x)) - uloc @ lam
        return (du ** 2).sum(axis=1) + k2 * dv ** 2

    sq = integrate_simplices(integrand, mesh.points[mesh.simplices], mesh.volumes,
                             TRUE_ERROR_DEGREE)
    direct = math.sqrt(max(float(sq.sum()), 0.0))

    energy2 = getattr(exact, "energy2", None)
    return direct, None if energy2 is None else energy_error(sol, energy2)
