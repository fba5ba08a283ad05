import math

import numpy as np
import pytest

from conftest import LOS, RF, path_gain
from hexnet.errors import DomainError
from hexnet.propagation import kappa_los, kappa_nlos, link_table, sample_fading

BETA = 0.012774193548387098
DH = 3.1


def fading_ccdf(m, x):
    """Oracle: P[fading power gain > x] for unit-mean fading of Nakagami
    shape m.

    Gamma(m, 1/m) tail: sum_{k<m} (m x)^k / k! * e^{-m x}; reduces to e^{-x}
    for the RF (Rayleigh) case m = 1.
    """
    mx = m * np.asarray(x, dtype=float)
    terms = [mx**k / math.factorial(k) for k in range(m)]
    return sum(terms) * np.exp(-mx)


def test_kappa_overhead_and_no_blockers(table3):
    assert kappa_los(DH, BETA, DH) == 1.0
    assert kappa_los(57.3, 0.0, DH) == 1.0


def test_kappa_value_at_ten_meters():
    r = math.sqrt(100.0 + DH * DH)
    assert kappa_los(r, BETA, DH) == pytest.approx(math.exp(-BETA * 10.0), rel=1e-12)
    assert kappa_los(r, BETA, DH) == pytest.approx(0.8800, abs=2e-4)


def test_kappa_partition():
    r = np.linspace(DH, 120.0, 64)
    total = kappa_los(r, BETA, DH) + kappa_nlos(r, BETA, DH)
    assert np.all(total == 1.0)


def test_kappa_domain_error():
    with pytest.raises(DomainError):
        kappa_los(DH - 1e-6, BETA, DH)


def test_path_gain_values(table3):
    r = table3.radio
    assert path_gain(LOS, 1.0, r) == pytest.approx(
        r.gamma_T * math.exp(-r.k_a), rel=1e-12)
    expected = r.gamma_T * math.exp(-0.7512) * 10.0**-2
    assert path_gain(LOS, 10.0, r) == pytest.approx(expected, rel=1e-12)
    assert path_gain(RF, 10.0, r) == pytest.approx(
        r.gamma_R * 10.0**-2.7, rel=1e-12)


def test_path_gain_monotone(table3):
    for link in range(3):
        assert path_gain(link, 5.0, table3.radio) > path_gain(link, 6.0, table3.radio)


def test_link_table_fading_shapes(table3):
    # each class's Nakagami shape, in event order: m_L, m_N, and 1 for the
    # Rayleigh RF link
    r = table3.radio
    assert link_table(table3).m.tolist() == [r.m_L, r.m_N, 1] == [3, 1, 1]


def test_fading_ccdf_values():
    for m in (1, 3):
        assert fading_ccdf(m, 0.0) == 1.0
    assert fading_ccdf(1, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)
    # m = 3 gamma tail at x = 1: e^-3 (1 + 3 + 4.5)
    assert fading_ccdf(3, 1.0) == pytest.approx(0.4231900811268436, rel=1e-12)


def test_fading_ccdf_shape():
    x = np.linspace(0.0, 12.0, 200)
    for m in (1, 3):
        vals = fading_ccdf(m, x)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals[0] == 1.0
        assert vals[-1] < 1e-3


def test_sample_fading_moments(table3):
    rng = np.random.default_rng(11)
    m = table3.radio.m_L
    draws = sample_fading(m, rng, np.empty(1_000_000))
    assert abs(draws.mean() - 1.0) < 0.003
    assert abs(draws.var() - 1.0 / 3.0) < 0.005
    for x in (0.25, 1.0, 2.5):
        assert (draws >= x).mean() == pytest.approx(fading_ccdf(m, x), abs=0.002)


def test_sample_fading_rayleigh_case():
    rng = np.random.default_rng(12)
    draws = sample_fading(1, rng, np.empty(500_000))
    assert abs(draws.mean() - 1.0) < 0.005
    for x in (0.5, 1.0, 3.0):
        assert (draws >= x).mean() == pytest.approx(fading_ccdf(1, x), abs=0.003)


def test_unit_mean_every_class(table3):
    rng = np.random.default_rng(13)
    m_los, m_nlos, m_rf = link_table(table3).m
    for m in (m_rf, m_los, m_nlos):
        draws = sample_fading(m, rng, np.empty(1_000_000))
        assert abs(draws.mean() - 1.0) < 0.003
        assert (draws >= 2.0).mean() == pytest.approx(
            fading_ccdf(m, 2.0), abs=0.002)
