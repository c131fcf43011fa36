"""Exact-degree quadrature on simplices of any dimension.

Rules come from the Grundmann-Moller family: the rule of index s integrates
polynomials of total degree 2s+1 exactly on the unit simplex. Nodes are stored
as barycentric coordinates, weights sum to the reference-simplex volume 1/d!,
so an integral over a physical simplex K is

    sum_q  w_q * |K| * d! * f(x_q).

The rules are nested: every node of the rule of index s is a node of the
rule of any higher index, and equal rationals give equal doubles, so a rule
that lists a node more than once lists equal doubles; the data pass of
``fem`` evaluates the data once per distinct node of its one rule.
``integrate_simplices`` integrates a batch of simplices node by node; the
data pass keeps its summation order, and the true error uses it directly.
The single-simplex references that the tests check it against live in
``tests/oracles.py``. Integrals of polynomials given in barycentric
coefficients use the exact moments ``simplex_moment`` instead, through the
Gram factor ``quadratic_gram_factor`` of the P2 basis ``p2_basis``, whose
pair order ``quadratic_pairs`` fixes.

Weights of the family alternate in sign; only exactness is guaranteed to
callers, not node placement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import UnsupportedDegree

MAX_DEGREE = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (barycentric) and weights for one simplex dimension.

    ``degree`` is the guaranteed exactness degree (may exceed the requested one,
    the family only provides odd degrees 2s+1).
    """

    dim: int
    degree: int
    points: np.ndarray   # (nq, dim+1) barycentric coordinates
    weights: np.ndarray  # (nq,), sum to 1/dim!

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self) -> int:
        return len(self.weights)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def rule_for(dim: int, degree: int) -> QuadratureRule:
    """Return a rule exact for polynomials of total degree <= `degree` on a dim-simplex."""
    if dim < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} exceeds the supported maximum {MAX_DEGREE}")
    s = max(0, math.ceil((degree - 1) / 2))
    exact = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = dim + 1 + 2 * (s - i)
        w = ((-1.0) ** i * 0.5 ** (2 * s) * float(denom) ** exact
             / (math.factorial(i) * math.factorial(exact + dim - i)))
        for beta in _compositions(s - i, dim + 1):
            pts.append([(2 * b + 1) / denom for b in beta])
            wts.append(w)
    return QuadratureRule(dim, exact, np.array(pts, dtype=float), np.array(wts, dtype=float))


def integrate_simplices(integrand: Callable, pts: np.ndarray, measures,
                        degree: int) -> np.ndarray:
    """Integrals over a batch of k-simplices ``pts`` (n, k+1, d) with measures (n,).

    ``integrand(x, lam)`` returns the (n, ...) values at the physical points
    x (n, d) of one node with barycentric coordinates lam (k+1,); the nodes
    are visited one at a time. Exact when the integrand is a polynomial of
    total degree <= `degree` on every simplex.
    """
    k = pts.shape[1] - 1
    rule = rule_for(k, degree)
    corners = [np.ascontiguousarray(pts[:, j]) for j in range(k + 1)]
    acc = 0.0   # the first node turns it into the (n, ...) array, later ones add in place
    for lam, w in zip(rule.points, rule.weights):
        x = sum(lj * cj for lj, cj in zip(lam, corners))
        acc += w * np.asarray(integrand(x, lam), dtype=float)
    scale = np.asarray(measures, dtype=float) * math.factorial(k)
    return acc * scale.reshape(scale.shape + (1,) * (acc.ndim - 1))


def simplex_moment(beta) -> float:
    """int_K prod_n lambda_n^beta_n / |K| on a d-simplex K, d = len(beta) - 1.

    The closed form beta! d! / (|beta| + d)! does not depend on the shape of K.
    """
    d = len(beta) - 1
    return (math.prod(math.factorial(b) for b in beta) * math.factorial(d)
            / math.factorial(sum(beta) + d))


def quadratic_pairs(dim: int):
    """The index arrays (a, b), a < b, of the P2 basis, ``a`` outer and ``b`` inner."""
    return np.triu_indices(dim + 1, 1)


def p2_basis(lam: np.ndarray) -> np.ndarray:
    """Values (..., nb) of the P2 basis lambda_0, ..., lambda_d, then lambda_a lambda_b
    over ``quadratic_pairs``, at the barycentric points ``lam`` (..., d+1)."""
    a, b = quadratic_pairs(lam.shape[-1] - 1)
    return np.concatenate([lam, lam[..., a] * lam[..., b]], axis=-1)


@lru_cache(maxsize=None)
def quadratic_gram_factor(dim: int) -> np.ndarray:
    """Lower Cholesky factor L of the Gram matrix, divided by |K|, of ``p2_basis``.

    int_K (sum_i v_i phi_i)^2 = |K| |L^T v|^2 for any simplex K. Read-only.
    """
    a, b = quadratic_pairs(dim)
    unit = np.eye(dim + 1, dtype=int)
    expo = np.concatenate([unit, unit[a] + unit[b]])    # the exponents of each basis function
    gram = np.array([[simplex_moment(p + q) for q in expo] for p in expo], dtype=float)
    factor = np.linalg.cholesky(gram)
    factor.setflags(write=False)
    return factor
