import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hexnet.numerics.jets import Jet, affine_power
from hexnet.numerics.quadrature import Quadrature, integrate


def _cauchy(a, b):
    """Truncated Cauchy product of two coefficient arrays (K+1, ...)."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k in range(out.shape[0]):
        for j in range(k + 1):
            out[k] += a[j] * b[k - j]
    return out


def _derivative(coeffs, u):
    return coeffs[u] * math.factorial(u)


def test_pow_matches_repeated_product():
    # oracle: p-fold truncated Cauchy product, for the integer exponents the
    # pipeline uses, on random coefficients with trailing axes
    rng = np.random.default_rng(4)
    for order in (0, 1, 3, 6):
        a = rng.uniform(-1.0, 1.0, size=(order + 1, 3, 2))
        a[0] = rng.uniform(0.5, 2.0, size=(3, 2))
        for p in (1, 2, 5, 15, 29):
            prod = a
            for _ in range(p - 1):
                prod = _cauchy(prod, a)
            assert (Jet(a) ** float(p)).coeffs == pytest.approx(
                prod, rel=1e-12, abs=1e-12 * np.abs(prod).max())


def test_power_derivative():
    j = Jet(np.array([2.0, 1.0])) ** -3.0       # (1 + s)^-3 at s = 1
    assert _derivative(j.coeffs, 1) == pytest.approx(-3.0 * 2.0**-4, rel=1e-13)


def test_rational_function_against_hand_derivatives():
    # f(s) = s / (1 + s^2) at s0 = 0.5
    s0 = 0.5
    s = np.array([s0, 1.0, 0.0, 0.0])
    j = _cauchy(s, (Jet(np.array([1.0 + s0 * s0, 2.0 * s0, 1.0, 0.0])) ** -1.0)
                .coeffs)
    d = 1.0 + s0 * s0
    assert j[0] == pytest.approx(s0 / d)
    assert _derivative(j, 1) == pytest.approx((1 - s0 * s0) / d**2, rel=1e-13)


@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_product_rule_is_leibniz(a):
    # the square J ** 2 = J * J obeys the Leibniz rule
    assume(abs(a[0]) > 0.1)
    u = np.array(a)
    sq = (Jet(u) ** 2.0).coeffs
    for q in range(4):
        leibniz = sum(math.comb(q, k) * _derivative(u, k) * _derivative(u, q - k)
                      for k in range(q + 1))
        assert _derivative(sq, q) == pytest.approx(leibniz, rel=1e-10, abs=1e-10)


def test_reciprocal_and_division():
    j = np.array([2.0, 1.0, 0.0, 0.0])
    one = _cauchy(j, (Jet(j) ** -1.0).coeffs)
    assert one == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-14)
    # (1 + s) / (2 - s) at s = 0.5
    ratio = _cauchy(np.array([1.5, 1.0, 0.0, 0.0]),
                    (Jet(np.array([1.5, -1.0, 0.0, 0.0])) ** -1.0).coeffs)
    f = lambda s: (1 + s) / (2 - s)
    h = 1e-5
    fd = (f(0.5 + h) - f(0.5 - h)) / (2 * h)
    assert _derivative(ratio, 1) == pytest.approx(fd, rel=1e-8)


def test_affine_power_matches_generic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a0 = rng.uniform(0.5, 5.0)
        a1 = rng.uniform(-2.0, 2.0)
        p = rng.uniform(-4.0, 3.0)
        fast = affine_power(a0, a1, p, 5)
        generic = Jet(np.array([a0, a1, 0.0, 0.0, 0.0, 0.0])) ** p
        assert fast.coeffs == pytest.approx(generic.coeffs, rel=1e-11)


def test_affine_power_closed_form():
    # generalized binomial: c_u = binom(p, u) a0^(p - u) a1^u
    rng = np.random.default_rng(5)
    for _ in range(20):
        a0 = rng.uniform(0.5, 5.0, size=3)
        a1 = rng.uniform(-2.0, 2.0, size=3)
        p = float(rng.uniform(-6.0, 3.0))
        c = affine_power(a0, a1, p, 6).coeffs
        for u in range(7):
            binom = math.prod(p - i for i in range(u)) / math.factorial(u)
            assert c[u] == pytest.approx(binom * a0 ** (p - u) * a1**u,
                                         rel=1e-12, abs=1e-300)


def test_array_valued_jets():
    s0 = np.array([0.5, 1.0, 2.0])
    c = np.array([1.0, 2.0, 3.0])
    base = np.stack([1.0 + s0 * c, c, np.zeros(3)])     # 1 + c s around s0
    j = Jet(base) ** -2.0
    expected_d1 = -2 * c * (1 + s0 * c) ** -3
    assert _derivative(j.coeffs, 1) == pytest.approx(expected_d1, rel=1e-12)


def test_jets_commute_with_integration():
    # d/ds of int_0^2 (1 + s y)^-3 / (1 + y) dy, via jets inside the
    # quadrature versus quadrature of the analytically differentiated integrand
    s0, order, p = 0.8, 2, -3.0
    q = Quadrature(rel_tol=1e-11, abs_tol=1e-14)

    def jet_integrand(y):
        ker = affine_power(1.0 + s0 * y, y, p, order).coeffs / (1.0 + y)
        return np.moveaxis(ker, 0, -1)

    coeffs = integrate(jet_integrand, 0.0, 2.0, q).value
    for u in range(order + 1):
        fall = math.prod(p - i for i in range(u))
        direct = integrate(
            lambda y: fall * y**u * (1.0 + s0 * y) ** (p - u) / (1.0 + y),
            0.0, 2.0, q).value
        assert _derivative(coeffs, u) == pytest.approx(direct, rel=1e-9)
