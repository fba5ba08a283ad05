import math

import numpy as np
import pytest

from hexnet import with_updates
from hexnet.antenna import mean_desired_gain
from hexnet.errors import DomainError
from hexnet.exclusion import ExclusionRegions, lambert_w0
from hexnet.geometry import support


@pytest.fixture(scope="module")
def regions(table3):
    sup = support(table3)
    return sup, ExclusionRegions(sup.z_l, table3.radio,
                                 mean_desired_gain(table3.antenna))


def test_lambert_known_values():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_residual_over_required_range():
    x = np.concatenate([
        np.linspace(-math.exp(-1.0) + 1e-6, 1.0, 4001),
        np.geomspace(1.0, 1e6, 4001),
    ])
    w = lambert_w0(x)
    resid = np.abs(w * np.exp(w) - x) / np.maximum(np.abs(x), 1e-300)
    assert resid.max() <= 1e-12
    assert np.all(w >= -1.0)


def test_lambert_against_scipy():
    from scipy.special import lambertw
    x = np.geomspace(1e-8, 1e6, 300)
    assert lambert_w0(x) == pytest.approx(np.real(lambertw(x)), rel=1e-12)


def test_lambert_domain_error():
    with pytest.raises(DomainError):
        lambert_w0(-1.0 / math.e - 1e-6)


def _powers(radio, mean_gain):
    amp_thz = radio.B_T * radio.P_T * radio.gamma_T * mean_gain
    amp_rf = radio.P_R * radio.gamma_R

    def p_los(d):
        return amp_thz * np.exp(-radio.k_a * d) * d**-radio.alpha_L

    def p_nlos(d):
        return amp_thz * np.exp(-radio.k_a * d) * d**-radio.alpha_N

    def p_rf(d):
        return amp_rf * d**-radio.alpha_R

    return p_los, p_nlos, p_rf


def test_all_six_balances(table3, regions):
    sup, ex = regions
    p_los, p_nlos, p_rf = _powers(table3.radio, mean_desired_gain(table3.antenna))
    rng = np.random.default_rng(21)
    cases = [
        (ex.e_lr, ex.h_lr, p_los, p_rf),
        (ex.e_ln, ex.h_ln, p_los, p_nlos),
        (ex.e_nr, ex.h_nr, p_nlos, p_rf),
        (ex.e_nl, ex.h_nl, p_nlos, p_los),
        (ex.e_rl, ex.h_rl, p_rf, p_los),
        (ex.e_rn, ex.h_rn, p_rf, p_nlos),
    ]
    for boundary, h, p_serv, p_other in cases:
        lo = max(h, sup.z_l) * (1 + 1e-9)
        r = rng.uniform(lo, 3 * sup.z_p, size=1000)
        e = boundary(r)
        resid = np.abs(p_serv(r) - p_other(e)) / p_other(e)
        assert resid.max() <= 1e-9


def test_boundaries_clamp_below_threshold(table3, regions):
    sup, ex = regions
    for boundary, h in [(ex.e_ln, ex.h_ln), (ex.e_rl, ex.h_rl), (ex.e_rn, ex.h_rn)]:
        if h > sup.z_l:
            r = np.linspace(sup.z_l, h * (1 - 1e-9), 50)
            assert np.all(boundary(r) == sup.z_l)


def test_continuity_at_thresholds(table3, regions):
    sup, ex = regions
    for boundary, h in [(ex.e_lr, ex.h_lr), (ex.e_ln, ex.h_ln), (ex.e_nr, ex.h_nr),
                        (ex.e_nl, ex.h_nl), (ex.e_rl, ex.h_rl), (ex.e_rn, ex.h_rn)]:
        if h > sup.z_l:
            assert boundary(h * (1 + 1e-12)) == pytest.approx(sup.z_l, abs=1e-6)


def test_boundaries_nondecreasing_and_floored(table3, regions):
    sup, ex = regions
    r = np.linspace(sup.z_l, sup.z_p, 500)
    for boundary in (ex.e_lr, ex.e_ln, ex.e_nr, ex.e_nl, ex.e_rl, ex.e_rn):
        vals = boundary(r)
        assert np.all(np.diff(vals) >= -1e-9)
        assert np.all(vals >= sup.z_l - 1e-12)


def test_reciprocity(table3, regions):
    sup, ex = regions
    r = np.linspace(max(ex.h_lr, sup.z_l) + 1.0, sup.z_p, 64)
    e = ex.e_lr(r)
    back = ex.e_rl(e)
    assert back == pytest.approx(r, rel=1e-6)
    r2 = np.linspace(max(ex.h_ln, sup.z_l) + 1.0, sup.z_p, 64)
    assert ex.e_nl(ex.e_ln(r2)) == pytest.approx(r2, rel=1e-6)


def test_identity_boundary_for_identical_tiers(table3):
    cfg = with_updates(table3, k_a=0.0, alpha_N=table3.radio.alpha_L, m_N=table3.radio.m_L)
    sup = support(cfg)
    ex = ExclusionRegions(sup.z_l, cfg.radio, mean_desired_gain(cfg.antenna))
    r = np.linspace(sup.z_l, sup.z_p, 100)
    assert ex.e_ln(r) == pytest.approx(r, rel=1e-12)


def test_zero_absorption_limits(table3):
    cfg = with_updates(table3, k_a=0.0)
    sup = support(cfg)
    ex = ExclusionRegions(sup.z_l, cfg.radio, mean_desired_gain(cfg.antenna))
    p_los, p_nlos, p_rf = _powers(cfg.radio, mean_desired_gain(cfg.antenna))
    r = np.linspace(max(ex.h_ln, sup.z_l) + 0.1, sup.z_p, 50)
    e = ex.e_ln(r)
    assert np.abs(p_los(r) - p_nlos(e)).max() / p_nlos(e).min() <= 1e-9

