import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxbound.geometry as geo
from fluxbound.errors import UnsupportedDegree
from fluxbound.quadrature import integrate_simplices, p2_basis, quadratic_gram_factor, rule_for

from conftest import bary_monomial_integral, random_simplex
from oracles import simplex_gradients, simplex_measure

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_TET = np.eye(4)[1:, :3] * 0.0  # placeholder, built below
REF_TET = np.vstack([np.zeros(3), np.eye(3)])


def integrate_one(f, vertices, degree):
    """integrate_simplices on one simplex or facet; f maps (n, d) points to (n,) values."""
    vertices = np.asarray(vertices, dtype=float)
    return integrate_simplices(lambda x, lam: f(x), vertices[None],
                               simplex_measure(vertices)[None], degree)[0]


def test_weights_sum_to_reference_volume():
    for d in range(1, 6):
        for degree in range(0, 9):
            rule = rule_for(d, degree)
            assert rule.weights.sum() == pytest.approx(1.0 / math.factorial(d), rel=1e-13)


def test_centroid_rule_integrates_constants():
    assert integrate_one(lambda x: np.ones(len(x)), REF_TRI, 0) == pytest.approx(0.5, abs=1e-15)


def test_lambda1_lambda2_reference_triangle():
    rule = rule_for(2, 2)
    val = rule.weights @ (rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, rel=1e-13)


def test_lambda1_squared_reference_tet():
    rule = rule_for(3, 2)
    val = rule.weights @ rule.points[:, 0] ** 2
    assert val == pytest.approx(1.0 / 60.0, rel=1e-13)


@pytest.mark.parametrize("d", range(1, 6))
def test_quadratic_gram_factor_against_quadrature(d):
    # L L^T is the Gram matrix / |K| of lambda_n, then lambda_a lambda_b (a < b),
    # here by the degree-4 rule on the reference simplex (|K| = 1/d!)
    rule = rule_for(d, 4)
    lam = rule.points
    basis = [lam[:, n] for n in range(d + 1)]
    basis += [lam[:, a] * lam[:, b] for a, b in itertools.combinations(range(d + 1), 2)]
    phi = np.array(basis)
    gram = math.factorial(d) * (phi * rule.weights) @ phi.T
    assert np.array_equal(p2_basis(lam), phi.T)
    L = quadratic_gram_factor(d)
    assert not L.flags.writeable
    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0)
    np.testing.assert_allclose(L @ L.T, gram, rtol=1e-13, atol=1e-16)


def test_exactness_all_monomials_up_to_degree8():
    # every barycentric monomial of total degree <= rule degree, d <= 5
    for d in range(1, 6):
        for degree in range(0, 9):
            rule = rule_for(d, degree)
            for total in range(degree + 1):
                for head in itertools.combinations_with_replacement(range(d + 1), total):
                    expo = [head.count(i) for i in range(d + 1)]
                    val = rule.weights @ np.prod(rule.points ** expo, axis=1)
                    ref = bary_monomial_integral(expo, 1.0 / math.factorial(d))
                    assert val == pytest.approx(ref, rel=1e-12), (d, degree, expo)


def test_integrate_unit_and_hats(rng):
    for d in (2, 3, 4):
        pts = random_simplex(d, rng)
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(d)
        assert integrate_one(lambda x: np.ones(len(x)), pts, 1) == pytest.approx(vol, rel=1e-12)
        # hat function of vertex 0 via its affine representation
        g = geo.simplex_geometry(pts[None]).grads[0]

        def hat(x):
            return 1.0 + (x - pts[0]) @ g[0]

        assert integrate_one(hat, pts, 1) == pytest.approx(vol / (d + 1), rel=1e-12)


def test_affine_exact_at_degree_one_matches_high_degree():
    def f(x):
        return 1.5 + 2.0 * x[:, 0] - 0.5 * x[:, 1]

    lo = integrate_one(f, REF_TRI, 1)
    hi = integrate_one(f, REF_TRI, 8)
    assert lo == pytest.approx(hi, abs=1e-14)


def test_facet_constant_gives_measure():
    seg = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert integrate_one(lambda x: np.ones(len(x)), seg, 0) == pytest.approx(5.0)
    tri3d = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert integrate_one(lambda x: np.ones(len(x)), tri3d, 0) == pytest.approx(0.5)


def test_facet_affine_equals_midpoint_value_times_measure():
    seg = np.array([[1.0, 2.0], [4.0, 6.0]])

    def g(x):
        return 2.0 * x[:, 0] - x[:, 1] + 1.0

    mid = g(seg.mean(axis=0, keepdims=True))[0]
    assert integrate_one(g, seg, 1) == pytest.approx(mid * 5.0, rel=1e-13)


def test_facet_lambda1_lambda2_unit_segment():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])

    def f(x):
        return x[:, 0] * (1.0 - x[:, 0])

    assert integrate_one(f, seg, 2) == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        rule_for(3, 13)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 8), st.data())
def test_affine_invariance(d, degree, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    pts = random_simplex(d, rng)
    expo = data.draw(st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1))
    if sum(expo) > degree:
        expo = [0] * (d + 1)
    g = geo.simplex_geometry(pts[None]).grads[0]

    def f(x):
        lam = (x - pts[0]) @ g.T
        lam[:, 0] += 1.0
        return np.prod(lam ** expo, axis=1)

    vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(d)
    ref = bary_monomial_integral(expo, vol)
    assert integrate_one(f, pts, degree) == pytest.approx(ref, rel=1e-11, abs=1e-15)

    # the batched route on several simplices, with a trailing vector axis; the
    # integrand recovers the barycentric coordinates from the physical points
    batch = np.stack([pts] + [random_simplex(d, rng) for _ in range(3)])
    grads = simplex_gradients(batch)
    vols = np.array([abs(np.linalg.det(p[1:] - p[0])) for p in batch]) / math.factorial(d)

    def f_batch(x, lam):
        bary = np.einsum("nd,nid->ni", x - batch[:, 0], grads)
        bary[:, 0] += 1.0
        mono = np.prod(bary ** expo, axis=1)
        return np.stack([mono, -2.0 * mono], axis=-1)

    got = integrate_simplices(f_batch, batch, vols, degree)
    want = np.array([bary_monomial_integral(expo, v) for v in vols])
    assert got.shape == (len(batch), 2)
    assert np.allclose(got, want[:, None] * [1.0, -2.0], rtol=1e-11, atol=1e-15)

    # and on facets: (d-1)-simplices embedded in R^d
    facets = batch[:, 1:]
    edges = facets[:, 1:] - facets[:, :1]
    fmeas = np.sqrt(np.linalg.det(edges @ np.swapaxes(edges, 1, 2))) / math.factorial(d - 1)

    def f_facet(x, lam):
        assert np.allclose(x, np.einsum("j,njd->nd", lam, facets))
        return np.prod(lam ** expo[1:], axis=0) * np.ones(len(x))

    got = integrate_simplices(f_facet, facets, fmeas, degree)
    want = np.array([bary_monomial_integral(expo[1:], m) for m in fmeas])
    assert np.allclose(got, want, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_rules_are_nested_bit_for_bit(dim):
    # every node of a lower-degree rule is, as a double, a node of each
    # higher-degree rule, which lets the data pass share its evaluations
    for lo in range(0, 12, 2):
        low = {tuple(p) for p in rule_for(dim, lo).points}
        for hi in range(lo + 2, 13, 2):
            assert low <= {tuple(p) for p in rule_for(dim, hi).points}, (lo, hi)
