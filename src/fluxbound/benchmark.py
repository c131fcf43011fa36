"""Cube benchmark with a closed-form univariate exact solution.

The domain is (-1, 1)^d with kappa = kappa1 for x1 < 0 and kappa2 for x1 >= 0,
source f = kappa1^2, homogeneous Dirichlet conditions on the faces x1 = +-1 and
homogeneous Neumann conditions elsewhere. The exact solution depends on x1
only; its four exponential coefficients follow from the boundary values and C1
continuity at the interface. All exponentials are stored in the decaying form
exp(-kappa * distance-to-anchor), so kappa2 = 1e6 causes no overflow.

``sweep_kappa`` and ``sweep_mesh`` return the validated ``RunConfig``s of the
paper's two robustness sweeps (an empty sweep is a ``ValueError``); ``run_benchmark`` runs one configuration and
returns its CSV row, and ``write_csv`` streams rows to an open file.
"""
from __future__ import annotations

import itertools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import KappaJumpWarning, SingularSystem
from .estimator import STRATEGIES, energy_error, estimate
from .fem import ProblemData, solve_problem
from .geometry import Mesh, build_cube_mesh

CSV_HEADER = ("d,M,ndof,kappa1,kappa2,true_error,eta_tau,eta_taustar,"
              "osc_f,osc_gn,ieff_tau,ieff_taustar,solver_iters,runtime_ms")

DEFAULT_KAPPA1_SWEEP = tuple(10.0 ** k for k in range(-3, 7))
DEFAULT_MESH_SWEEP = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ExactBenchmarkSolution:
    """u(x1) = B1 e^{-k1(x1+1)} + B2 e^{k1 x1} + 1 on the left half and
    B3 e^{-k2 x1} + B4 e^{-k2(1-x1)} + (k1/k2)^2 on the right half."""

    kappa1: float
    kappa2: float
    coeffs: np.ndarray       # B1..B4
    dim: int
    energy2: float           # F(u) = |||u|||^2 for this dimension
    condition_residuals: np.ndarray

    def u1(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        b1, b2, b3, b4 = self.coeffs
        k1, k2 = self.kappa1, self.kappa2
        left = x1 < 0
        out = np.empty_like(x1)
        xl = x1[left]
        out[left] = b1 * np.exp(-k1 * (xl + 1.0)) + b2 * np.exp(k1 * xl) + 1.0
        xr = x1[~left]
        out[~left] = (b3 * np.exp(-k2 * xr) + b4 * np.exp(-k2 * (1.0 - xr))
                      + (k1 / k2) ** 2)
        return out

    def du1(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        b1, b2, b3, b4 = self.coeffs
        k1, k2 = self.kappa1, self.kappa2
        left = x1 < 0
        out = np.empty_like(x1)
        xl = x1[left]
        out[left] = k1 * (-b1 * np.exp(-k1 * (xl + 1.0)) + b2 * np.exp(k1 * xl))
        xr = x1[~left]
        out[~left] = k2 * (-b3 * np.exp(-k2 * xr) + b4 * np.exp(-k2 * (1.0 - xr)))
        return out

    def value(self, pts) -> np.ndarray:
        return self.u1(np.asarray(pts)[:, 0])

    def gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts)
        out = np.zeros_like(pts, dtype=float)
        out[:, 0] = self.du1(pts[:, 0])
        return out


def exact_solution(kappa1: float, kappa2: float, dim: int = 3) -> ExactBenchmarkSolution:
    """Solve the 4x4 coefficient system; raises SingularSystem on failure."""
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("kappa1 and kappa2 must be positive")
    k1, k2 = float(kappa1), float(kappa2)
    e1, e2 = math.exp(-k1), math.exp(-k2)
    q = (k1 / k2) ** 2
    s = max(k1, k2)
    A = np.array([
        [1.0, e1, 0.0, 0.0],
        [0.0, 0.0, e2, 1.0],
        [e1, 1.0, -1.0, -e2],
        [-k1 * e1 / s, k1 / s, k2 / s, -k2 * e2 / s],
    ])
    rhs = np.array([-1.0, -q, q - 1.0, 0.0])
    try:
        b = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    resid = np.abs(A @ b - rhs) / np.maximum(np.abs(A) @ np.abs(b) + np.abs(rhs), 1e-300)
    if resid.max() > 1e-10:
        raise SingularSystem(f"coefficient system residual {resid.max():.3e}")

    int_left = (b[0] + b[1]) * (1.0 - e1) / k1 + 1.0
    int_right = (b[2] + b[3]) * (1.0 - e2) / k2 + q
    energy2 = k1 ** 2 * 2.0 ** (dim - 1) * (int_left + int_right)
    return ExactBenchmarkSolution(kappa1=k1, kappa2=k2, coeffs=b, dim=dim,
                                  energy2=energy2, condition_residuals=resid)


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run; kappa1 <= kappa2 by convention."""

    dim: int = 3
    m: int = 16
    kappa1: float = 100.0
    kappa2: float = 1.0e6
    strategy: str = "both"
    conformity: bool = False

    def __post_init__(self):
        for name in ("dim", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("kappa1", "kappa2"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.m < 1:
            raise ValueError("M must be >= 1")
        if not 0 < self.kappa1 <= self.kappa2:
            raise ValueError("need 0 < kappa1 <= kappa2")


def _nonempty(configs: list[RunConfig]) -> list[RunConfig]:
    if not configs:
        raise ValueError("a sweep needs at least one value")
    return configs


def sweep_kappa(config: RunConfig, kappa1_list=None) -> list[RunConfig]:
    """One configuration per kappa1 (default sweep 1e-3 ... 1e6 at the configured M)."""
    values = DEFAULT_KAPPA1_SWEEP if kappa1_list is None else kappa1_list
    return _nonempty([replace(config, kappa1=float(k1)) for k1 in values])


def sweep_mesh(config: RunConfig, m_list=None) -> list[RunConfig]:
    """One configuration per mesh size M (default 2, 4, 8, 16, 32)."""
    values = DEFAULT_MESH_SWEEP if m_list is None else m_list
    return _nonempty([replace(config, m=int(m)) for m in values])


def benchmark_mesh(config: RunConfig) -> Mesh:
    k1, k2 = config.kappa1, config.kappa2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KappaJumpWarning)  # jumps are the point here
        return build_cube_mesh(config.m, config.dim,
                               lambda c: np.where(c[:, 0] < 0, k1, k2))


def benchmark_data(config: RunConfig) -> ProblemData:
    f_val = config.kappa1 ** 2
    return ProblemData(f=lambda x: np.full(len(x), f_val), g_N=None, data_degree=2)


def run_benchmark(config: RunConfig, mesh: Mesh | None = None,
                  patch_report_path: str | None = None):
    """Build, solve, equilibrate and estimate one configuration.

    Returns ``(report, row)`` where row is the CSV record. The true error is
    the exact solution's ``energy_error``. When ``mesh`` is supplied (e.g. from a
    mesh file) it is used as-is and there is no exact solution, so the
    true-error columns stay empty. ``patch_report_path`` goes to ``estimate``.
    """
    t0 = time.perf_counter()
    exact = None
    if mesh is None:
        mesh = benchmark_mesh(config)
        exact = exact_solution(config.kappa1, config.kappa2, config.dim)
    data = benchmark_data(config)
    sol = solve_problem(mesh, data)
    report = estimate(mesh, sol, data, config.strategy,
                      check_conformity=config.conformity,
                      patch_report_path=patch_report_path)
    err = None if exact is None else energy_error(sol, exact.energy2)
    ms = (time.perf_counter() - t0) * 1000.0
    row = {
        "d": mesh.dim, "M": config.m if exact is not None else 0,
        "ndof": sol.ndof, "kappa1": config.kappa1, "kappa2": config.kappa2,
        "true_error": err, "eta_tau": report.eta_tau,
        "eta_taustar": report.eta_taustar,
        "osc_f": math.sqrt(float((report.osc_f ** 2).sum())),
        "osc_gn": math.sqrt(float((report.osc_gn ** 2).sum())),
        "ieff_tau": _ieff(report.eta_tau, err), "ieff_taustar": _ieff(report.eta_taustar, err),
        "solver_iters": sol.iterations, "runtime_ms": ms,
    }
    return report, row


def _ieff(eta, err):
    return eta / err if eta is not None and err else None


def _fmt(value) -> str:
    # the integer columns stay far below 1e12, where .12g prints them exactly
    return "" if value is None else f"{value:.12g}"


def format_row(row: dict) -> str:
    return ",".join(_fmt(row[k]) for k in CSV_HEADER.split(","))


def write_csv(rows, fh) -> None:
    """Write the header, then each row of ``rows`` as it arrives, flushing every
    line so that the rows before a failed run survive it, on a file or stdout."""
    for line in itertools.chain([CSV_HEADER], map(format_row, rows)):
        fh.write(line + "\n")
        fh.flush()
