import math

import numpy as np
import pytest

import hexnet.exclusion as exclusion
from conftest import random_config
from hexnet import default_config, with_updates
from hexnet.antenna import mean_desired_gain
from hexnet.errors import DomainError, NotConverged
from hexnet.exclusion import ExclusionRegions, wright_omega
from hexnet.geometry import support
from hexnet.propagation import link_table


def _regions(cfg):
    sup = support(cfg)
    return sup, ExclusionRegions(sup.z_l, link_table(cfg))


@pytest.fixture(scope="module")
def regions(table3):
    return _regions(table3)


def _balance_configs():
    """Table 3, its edge cases and a few random scenarios, by name."""
    base = default_config()
    cfgs = {
        "table3": base,
        "k_a=0": with_updates(base, k_a=0.0),
        "B_T=1e-6": with_updates(base, B_T=1e-6),
        "B_T=1e6": with_updates(base, B_T=1e6),
        "v_0=79": with_updates(base, v_0=79.0),
    }
    rng = np.random.default_rng(2024)
    for i in range(4):
        cfgs[f"random{i}"] = random_config(base, rng)
    return cfgs


def test_lambert_known_values():
    # wright_omega(L) = W0(e^L): W0(e) = 1, W0(e^{1+e}) = e, and W0(1) is
    # the omega constant
    assert wright_omega(1.0) == 1.0
    assert wright_omega(1.0 + math.e) == pytest.approx(math.e, rel=1e-15)
    assert wright_omega(0.0) == pytest.approx(0.5671432904097838, rel=1e-15)


def test_lambert_residual_over_required_range():
    L = np.concatenate([np.linspace(-700.0, 700.0, 4001),
                        np.geomspace(700.0, 1e12, 4001)])
    w = wright_omega(L)
    assert np.all(w > 0.0)
    resid = np.abs(w + np.log(w) - L)
    assert np.all(resid <= 32 * np.finfo(float).eps * (1.0 + np.abs(L)))


def test_lambert_against_scipy():
    from scipy.special import lambertw
    L = np.linspace(-700.0, 700.0, 2001)
    assert wright_omega(L) == pytest.approx(np.real(lambertw(np.exp(L))), rel=1e-14)


def test_lambert_domain_error():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            wright_omega(bad)
        with pytest.raises(DomainError):
            wright_omega(np.array([1.0, bad]))


def test_lambert_unconverged_raises(monkeypatch):
    # one Newton step from ln L is not enough at 1e6
    monkeypatch.setattr(exclusion, "NEWTON_STEPS", 1)
    with pytest.raises(NotConverged):
        wright_omega(1e6)


def test_lambert_values_independent_of_batch():
    # an entry stops at its own converged step, whatever the rest of its
    # array does: a value in an array equals the value computed alone
    rng = np.random.default_rng(11)
    L = np.concatenate([rng.uniform(-700.0, 700.0, 1000),
                        np.exp(rng.uniform(0.0, math.log(1e12), 1000))])
    w = wright_omega(L)
    assert all(w[i] == wright_omega(float(a)) for i, a in enumerate(L))


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


def _cases(cfg, ex, powers=_powers):
    """(boundary, threshold, serving power, competitor power) of all six."""
    p_los, p_nlos, p_rf = powers(cfg.radio, mean_desired_gain(cfg.antenna))
    return [
        (ex.e_lr, ex.h_lr, p_los, p_rf),
        (ex.e_ln, ex.h_ln, p_los, p_nlos),
        (ex.e_nr, ex.h_nr, p_nlos, p_rf),
        (ex.e_nl, ex.h_nl, p_nlos, p_los),
        (ex.e_rl, ex.h_rl, p_rf, p_los),
        (ex.e_rn, ex.h_rn, p_rf, p_nlos),
    ]


def test_all_six_balances():
    rng = np.random.default_rng(21)
    for name, cfg in _balance_configs().items():
        sup, ex = _regions(cfg)
        for boundary, h, p_serv, p_other in _cases(cfg, ex):
            lo = max(h, sup.z_l) * (1 + 1e-9)
            r = rng.uniform(lo, max(3 * sup.z_p, 3 * lo), size=1000)
            e = boundary(r)
            resid = np.abs(p_serv(r) - p_other(e)) / p_other(e)
            assert resid.max() <= 1e-9, name


def _log_powers(radio, mean_gain):
    """ln of the three powers of ``_powers``, formed without exp."""
    log_thz = math.log(radio.B_T * radio.P_T * radio.gamma_T * mean_gain)
    log_rf = math.log(radio.P_R * radio.gamma_R)
    return (lambda d: log_thz - radio.k_a * d - radio.alpha_L * np.log(d),
            lambda d: log_thz - radio.k_a * d - radio.alpha_N * np.log(d),
            lambda d: log_rf - radio.alpha_R * np.log(d))


@pytest.mark.parametrize("k_a", [25.0, 50.0])
def test_all_six_balances_in_log_power(table3, k_a):
    # at large absorption both linear THz powers underflow at far serving
    # distances; every balance still holds in log power, and a boundary
    # against a THz AP is finite.  One against an RF AP is +inf only where
    # the RF AP would have to sit beyond the float range
    eps, big = np.finfo(float).eps, np.finfo(float).max
    rng = np.random.default_rng(25)
    for delta_t in (table3.geometry.delta_T, 1.0):
        cfg = with_updates(table3, k_a=k_a, delta_T=delta_t)
        sup, ex = _regions(cfg)
        log_l, log_n, log_r = _log_powers(cfg.radio, mean_desired_gain(cfg.antenna))
        for boundary, h, log_serv, log_other in _cases(cfg, ex, _log_powers):
            lo = max(h, sup.z_l) * (1 + 1e-9)
            r = rng.uniform(lo, max(3 * sup.z_p, 3 * lo), size=1000)
            e = boundary(r)
            assert not np.isnan(e).any()
            far = np.isinf(e)
            if boundary.__name__ in ("e_lr", "e_nr"):
                assert np.all(log_r(big) > log_serv(r[far]))
            else:
                assert not far.any()
            r, e = r[~far], e[~far]
            scale = 1.0 + np.abs(log_serv(r))
            resid = np.abs(log_serv(r) - log_other(e)) / (eps * scale)
            assert resid.max() <= 16, (delta_t, boundary.__name__)
        x = np.linspace(sup.z_l, 3 * sup.z_p, 1000)
        tiny = math.log(np.finfo(float).tiny)
        assert np.any((log_l(x) < tiny) & (log_n(x) < tiny))


def test_boundaries_clamp_below_threshold(table3, regions):
    sup, ex = regions
    for boundary, h in [(ex.e_ln, ex.h_ln), (ex.e_rl, ex.h_rl), (ex.e_rn, ex.h_rn)]:
        if h > sup.z_l:
            r = np.linspace(sup.z_l, h * (1 - 1e-9), 50)
            assert np.all(boundary(r) == sup.z_l)


def test_balance_solved_only_at_or_above_threshold(table3, monkeypatch):
    # below h_xy the boundary is z_l whatever the balance says, so no r
    # there reaches _balance; a NaN r still does, and raises
    sup, ex = _regions(table3)
    seen = []
    balance = ex._balance

    def recording(x, y, r):
        seen.append((x, y, np.array(r, dtype=float)))
        return balance(x, y, r)

    monkeypatch.setattr(ex, "_balance", recording)
    r = np.linspace(sup.z_l, sup.z_p, 200)
    below = 0
    for name in ("lr", "ln", "nr", "nl", "rl", "rn"):
        boundary = getattr(ex, f"e_{name}")
        x, y = ("lnr".index(c) for c in name)
        h = ex._h[x, y]
        seen.clear()
        vals = boundary(r)
        assert seen and all(s[:2] == (x, y) and np.all(s[2] >= h)
                            for s in seen)
        below += int(np.sum(r < h))
        assert np.all(vals[r < h] == sup.z_l)
        assert np.array_equal(vals[r >= h], balance(x, y, r[r >= h]))
        assert boundary(float(r[0])).shape == boundary(float(r[-1])).shape == ()
    assert below > 0
    for boundary in (ex.e_ln, ex.e_rl):
        with pytest.raises(DomainError):
            boundary(np.array([sup.z_l, math.nan]))
        with pytest.raises(DomainError):
            boundary(math.nan)


def test_continuity_at_thresholds():
    # the threshold h balances the competitor at z_l, and the boundary
    # leaves z_l continuously there
    for name, cfg in _balance_configs().items():
        sup, ex = _regions(cfg)
        for boundary, h, p_serv, p_other in _cases(cfg, ex):
            assert p_serv(h) == pytest.approx(p_other(sup.z_l), rel=1e-9), name
            if h > sup.z_l:
                assert boundary(h * (1 + 1e-12)) == pytest.approx(
                    sup.z_l, abs=1e-6), name


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
    sup, ex = _regions(cfg)
    r = np.linspace(sup.z_l, sup.z_p, 100)
    assert ex.e_ln(r) == pytest.approx(r, rel=1e-12)


def test_zero_absorption_limits(table3):
    cfg = with_updates(table3, k_a=0.0)
    sup, ex = _regions(cfg)
    p_los, p_nlos, p_rf = _powers(cfg.radio, mean_desired_gain(cfg.antenna))
    r = np.linspace(max(ex.h_ln, sup.z_l) + 0.1, sup.z_p, 50)
    e = ex.e_ln(r)
    assert np.abs(p_los(r) - p_nlos(e)).max() / p_nlos(e).min() <= 1e-9

