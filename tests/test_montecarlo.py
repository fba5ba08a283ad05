import math

import numpy as np
import pytest

from conftest import path_gain
from hexnet import montecarlo, with_updates
from hexnet.antenna import desired_gain_pmf, interferer_gain_pmf, sample_gain
from hexnet.geometry import sample_deployment_arrays, support
from hexnet.montecarlo import MIN_TRIALS, _simulate_batch, estimate
from hexnet.propagation import LinkClass, sample_fading


def test_min_trials_guard(table3):
    with pytest.raises(ValueError, match="n_trials"):
        estimate(table3, MIN_TRIALS - 1, seed=0)


def test_estimate_deterministic(table3):
    a = estimate(table3, 4000, seed=42)
    b = estimate(table3, 4000, seed=42)
    assert a == b
    c = estimate(table3, 4000, seed=43)
    assert c != a


def test_worker_count_invariance(table3):
    serial = estimate(table3, 4000, seed=9, workers=1)
    parallel = estimate(table3, 4000, seed=9, workers=2)
    assert serial == parallel


def test_assoc_frequencies_partition(table3):
    sim = estimate(table3, 5000, seed=3)
    assert sum(sim.counts) == sim.n_trials
    assert sim.assoc.los + sim.assoc.nlos + sim.assoc.rf == 1.0


def test_rf_only_network(table3):
    cfg = with_updates(table3, delta_T=0.0)
    sim = estimate(cfg, 3000, seed=5)
    assert sim.counts == (0, 0, 3000)
    assert math.isnan(sim.cond_coverage.los.mean)
    assert sim.cond_coverage.rf.mean == sim.coverage.mean


def test_near_certain_coverage_at_low_threshold(table3):
    cfg = with_updates(table3, theta=1e-8)  # -80 dB
    sim = estimate(cfg, 5000, seed=11)
    assert sim.coverage.mean >= 0.999


def test_trial_outcome_invariants(table3):
    event, sinr, rate, x_serv = _simulate_batch(table3, np.random.default_rng(17), 40)
    assert set(event.tolist()) <= {0, 1, 2}
    r = table3.radio
    bw = np.where(event == 2, r.W_R, r.W_T)
    assert rate == pytest.approx(bw * np.log2(1 + sinr), rel=1e-12)
    sup = support(table3)
    assert np.all((x_serv >= sup.z_l) & (x_serv <= sup.z_p))


def test_run_trial_deterministic(table3):
    a = _simulate_batch(table3, np.random.default_rng(23), 5)
    b = _simulate_batch(table3, np.random.default_rng(23), 5)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


@pytest.fixture
def pinned_fading(monkeypatch):
    """Every fading draw at its mean (1.0), without consuming the stream."""
    monkeypatch.setattr(montecarlo, "sample_fading",
                        lambda link, rng, radio, size: np.ones(size))


def _trial(cfg, seed):
    """(deployment, (event, sinr)) of one trial with the same stream."""
    _, _, dist, is_thz, is_los = sample_deployment_arrays(
        cfg, np.random.default_rng(seed), 1)
    event, sinr, _, _ = _simulate_batch(cfg, np.random.default_rng(seed), 1)
    return (dist[0], is_thz[0], is_los[0]), (int(event[0]), float(sinr[0]))


def _thz_power(radio, g, d, los):
    link = LinkClass.THZ_LOS if los else LinkClass.THZ_NLOS
    return radio.P_T * g * path_gain(link, d, radio)


def test_single_ap_snr_matches_hand_formula(table3, pinned_fading):
    # one LOS THz AP, no blockers, no steering error, fading pinned at 1:
    # SINR must equal the deterministic SNR of the sampled position
    cfg = with_updates(table3, N_A=1, delta_T=1.0, lambda_B=0.0)
    (dist, is_thz, is_los), (event, sinr) = _trial(cfg, 31)
    assert is_thz[0] and is_los[0]
    r = cfg.radio
    g1 = cfg.antenna.g_T_max * cfg.antenna.g_U_max
    expected = _thz_power(r, g1, dist[0], True) / r.sigma2_T
    assert event == 0
    assert sinr == pytest.approx(expected, rel=1e-12)


def test_rf_two_ap_interference_structure(table3, pinned_fading):
    # two RF APs, pinned fading: SINR is the closed-form two-node expression
    # and the serving AP is excluded from its own interference
    cfg = with_updates(table3, N_A=2, delta_T=0.0)
    (dist, _, _), (event, sinr) = _trial(cfg, 7)
    d = sorted(dist)
    r = cfg.radio
    sig = r.P_R * path_gain(LinkClass.RF, d[0], r)
    interf = r.P_R * path_gain(LinkClass.RF, d[1], r)
    assert event == 2
    assert sinr == pytest.approx(sig / (interf + r.sigma2_R), rel=1e-12)


def test_interferer_uses_own_link_class(table3, pinned_fading):
    # two THz APs, huge beamwidths pin the interferer gain at its main lobe;
    # scan seeds for a deployment whose interferer link class differs from the
    # server's, then check the interference kernel uses the interferer's own
    # path-loss exponent
    phi = 2 * math.pi - 1e-9
    cfg = with_updates(table3, N_A=2, delta_T=1.0, lambda_B=1.0,
                       phi_T=phi, phi_U=phi)
    r = cfg.radio
    g1 = cfg.antenna.g_T_max * cfg.antenna.g_U_max
    checked_mixed = 0
    for seed in range(120):
        (ds, _, is_los), (_, sinr) = _trial(cfg, seed)
        brsp = [r.B_T * _thz_power(r, g1, d, los) for d, los in zip(ds, is_los)]
        win = int(np.argmax(brsp))
        other = 1 - win
        if is_los[win] == is_los[other]:
            continue
        desired = _thz_power(r, g1, ds[win], is_los[win])
        interf = _thz_power(r, g1, ds[other], is_los[other])
        assert sinr == pytest.approx(desired / (interf + r.sigma2_T), rel=1e-9)
        checked_mixed += 1
        if checked_mixed >= 3:
            break
    assert checked_mixed >= 3


def test_each_ap_draws_its_own_class_only(table3, monkeypatch):
    # one fading call per class, sized by that class's AP count, and one
    # interferer gain per THz AP: nothing is drawn that no AP uses
    cfg = with_updates(table3, N_A=30, delta_T=0.8)
    fading, gains = [], []

    def fading_recorder(link, rng, radio, size):
        out = sample_fading(link, rng, radio, size)
        fading.append((link, np.shape(out)))
        return out

    def gain_recorder(pmf, rng, size):
        out = sample_gain(pmf, rng, size)
        gains.append((pmf, np.shape(out)))
        return out

    monkeypatch.setattr(montecarlo, "sample_fading", fading_recorder)
    monkeypatch.setattr(montecarlo, "sample_gain", gain_recorder)
    n = 200
    _, _, _, is_thz, is_los = sample_deployment_arrays(
        cfg, np.random.default_rng(13), n)
    event, _, _, _ = _simulate_batch(cfg, np.random.default_rng(13), n)

    los = int((is_thz & is_los).sum())
    nlos = int((is_thz & ~is_los).sum())
    rf = int((~is_thz).sum())
    assert 0 < los and 0 < nlos and 0 < rf
    assert fading == [(LinkClass.THZ_LOS, (los,)),
                      (LinkClass.THZ_NLOS, (nlos,)),
                      (LinkClass.RF, (rf,))]
    assert los + nlos + rf == n * cfg.geometry.N_A
    assert gains == [(desired_gain_pmf(cfg.antenna), (int((event < 2).sum()),)),
                     (interferer_gain_pmf(cfg.antenna), (int(is_thz.sum()),))]


def test_fading_follows_the_serving_class(table3, monkeypatch):
    # constant fading per class (LOS 2, NLOS 3, RF 5): with one AP the SINR
    # is that constant times the SNR of the hand formula, so a class mix-up
    # in the fading draws shows
    constant = {LinkClass.THZ_LOS: 2.0, LinkClass.THZ_NLOS: 3.0,
                LinkClass.RF: 5.0}
    monkeypatch.setattr(montecarlo, "sample_fading",
                        lambda link, rng, radio, size: np.full(size, constant[link]))
    r = table3.radio
    g1 = table3.antenna.g_T_max * table3.antenna.g_U_max

    thz = with_updates(table3, N_A=1, delta_T=1.0, lambda_B=0.5)
    seen = set()
    for seed in range(40):
        (dist, is_thz, is_los), (event, sinr) = _trial(thz, seed)
        assert is_thz[0] and event == (0 if is_los[0] else 1)
        link = LinkClass.THZ_LOS if is_los[0] else LinkClass.THZ_NLOS
        snr = _thz_power(r, g1, dist[0], is_los[0]) / r.sigma2_T
        assert sinr == pytest.approx(constant[link] * snr, rel=1e-12)
        seen.add(link)
    assert seen == {LinkClass.THZ_LOS, LinkClass.THZ_NLOS}

    rf = with_updates(table3, N_A=1, delta_T=0.0)
    (dist, is_thz, _), (event, sinr) = _trial(rf, 3)
    assert not is_thz[0] and event == 2
    snr = r.P_R * path_gain(LinkClass.RF, dist[0], r) / r.sigma2_R
    assert sinr == pytest.approx(constant[LinkClass.RF] * snr, rel=1e-12)


def test_half_width_shrinks_like_sqrt_n(table3):
    small = estimate(table3, 20_000, seed=2)
    big = estimate(table3, 80_000, seed=2)
    ratio = small.coverage.half_width_95 / big.coverage.half_width_95
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_estimate_matches_analytic_quick(table3, engine):
    sim = estimate(table3, 50_000, seed=99)
    a = engine.assoc_probabilities()
    assert abs((a.los + a.nlos) - (sim.assoc.los + sim.assoc.nlos)) < 0.015
    cov = engine.coverage().total_coverage
    assert abs(cov - sim.coverage.mean) < sim.coverage.half_width_95 + 0.01
