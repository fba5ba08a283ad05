import math

import numpy as np
import pytest

from conftest import LOS, NLOS, RF, path_gain
from hexnet import montecarlo, with_updates
from hexnet.antenna import (desired_gain_pmf, interferer_gain_pmf,
                            mean_desired_gain, sample_gain)
from hexnet.errors import ConfigError
from hexnet.geometry import sample_deployment_arrays
from hexnet.montecarlo import MIN_TRIALS, _simulate_batch, estimate
from hexnet.propagation import link_table, sample_fading


def test_min_trials_guard(table3):
    # a typed configuration error, which the CLI reports with exit code 2
    with pytest.raises(ConfigError, match="n_trials"):
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


def _counts(sim):
    """Trials per event, in event order."""
    return tuple(e.n_trials for e in sim.cond_coverage)


def test_assoc_frequencies_partition(table3):
    sim = estimate(table3, 5000, seed=3)
    assert sum(_counts(sim)) == sim.n_trials
    assert tuple(sim.assoc) == tuple(c / sim.n_trials for c in _counts(sim))
    assert sim.assoc.los + sim.assoc.nlos + sim.assoc.rf == 1.0


def test_assoc_frequency_of_an_unserved_event_is_zero(table3):
    # at B_T = 1e308 THz serves every trial: the RF frequency is its count
    # over the trials, exactly 0, not what 1 - f_L - f_N rounds to
    sim = estimate(with_updates(table3, B_T=1e308), 1000, seed=1)
    assert sim.cond_coverage.rf.n_trials == 0
    assert sim.assoc.rf == 0.0
    assert tuple(sim.assoc) == tuple(c / sim.n_trials for c in _counts(sim))


def test_rf_only_network(table3):
    cfg = with_updates(table3, delta_T=0.0)
    sim = estimate(cfg, 3000, seed=5)
    assert _counts(sim) == (0, 0, 3000)
    assert math.isnan(sim.cond_coverage.los.mean)
    assert sim.cond_coverage.rf.mean == sim.coverage.mean


def test_near_certain_coverage_at_low_threshold(table3):
    cfg = with_updates(table3, theta=1e-8)  # -80 dB
    sim = estimate(cfg, 5000, seed=11)
    assert sim.coverage.mean >= 0.999


def test_trial_outcome_invariants(table3):
    event, sinr, rate = _simulate_batch(table3, np.random.default_rng(17), 40)
    assert set(event.tolist()) <= {0, 1, 2}
    r = table3.radio
    bw = np.where(event == 2, r.W_R, r.W_T)
    assert rate == pytest.approx(bw * np.log2(1 + sinr), rel=1e-12)


def test_run_trial_deterministic(table3):
    a = _simulate_batch(table3, np.random.default_rng(23), 5)
    b = _simulate_batch(table3, np.random.default_rng(23), 5)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


@pytest.fixture
def pinned_fading(monkeypatch):
    """Every fading draw at its mean (1.0), without consuming the stream."""
    monkeypatch.setattr(montecarlo, "sample_fading",
                        lambda m, rng, size: np.ones(size))


def _trial(cfg, seed):
    """((dist, is_los), (event, sinr)) of one trial with the same stream:
    the first n_thz distances are the THz APs, which is_los marks."""
    dist, is_los = sample_deployment_arrays(cfg, np.random.default_rng(seed), 1)
    event, sinr, _ = _simulate_batch(cfg, np.random.default_rng(seed), 1)
    return (dist[0], is_los[0]), (int(event[0]), float(sinr[0]))


def _thz_power(radio, g, d, los):
    return radio.P_T * g * path_gain(LOS if los else NLOS, d, radio)


def test_single_ap_snr_matches_hand_formula(table3, pinned_fading):
    # one LOS THz AP, no blockers, no steering error, fading pinned at 1:
    # SINR must equal the deterministic SNR of the sampled position
    cfg = with_updates(table3, N_A=1, delta_T=1.0, lambda_B=0.0)
    (dist, is_los), (event, sinr) = _trial(cfg, 31)
    assert is_los.shape == (1,) and is_los[0]
    r = cfg.radio
    g1 = cfg.antenna.g_T_max * cfg.antenna.g_U_max
    expected = _thz_power(r, g1, dist[0], True) / r.sigma2_T
    assert event == 0
    assert sinr == pytest.approx(expected, rel=1e-12)


def test_rf_two_ap_interference_structure(table3, pinned_fading):
    # two RF APs, pinned fading: SINR is the closed-form two-node expression
    # and the serving AP is excluded from its own interference
    cfg = with_updates(table3, N_A=2, delta_T=0.0)
    (dist, _), (event, sinr) = _trial(cfg, 7)
    d = sorted(dist)
    r = cfg.radio
    sig = r.P_R * path_gain(RF, d[0], r)
    interf = r.P_R * path_gain(RF, d[1], r)
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
        (ds, is_los), (_, sinr) = _trial(cfg, seed)
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
    # gains and fading are drawn for the serving tier's rows only: desired
    # and interferer gains and LOS/NLOS fading over the THz block of the
    # THz-served rows, RF fading over the RF block of the RF-served rows;
    # m_N = 2 gives each class its own fading shape
    cfg = with_updates(table3, N_A=30, delta_T=0.8, m_N=2)
    fading, gains = [], []

    def fading_recorder(m, rng, size):
        out = sample_fading(m, rng, size)
        fading.append((m, np.shape(out)))
        return out

    def gain_recorder(pmf, rng, size):
        out = sample_gain(pmf, rng, size)
        gains.append((pmf, np.shape(out)))
        return out

    monkeypatch.setattr(montecarlo, "sample_fading", fading_recorder)
    monkeypatch.setattr(montecarlo, "sample_gain", gain_recorder)
    n = 200
    _, is_los = sample_deployment_arrays(cfg, np.random.default_rng(13), n)
    event, _, _ = _simulate_batch(cfg, np.random.default_rng(13), n)

    n_thz, n_rf = cfg.geometry.n_thz, cfg.geometry.n_rf
    thz_rows = event < 2
    n_t = int(thz_rows.sum())
    los = int(is_los[thz_rows].sum())
    nlos = int((~is_los[thz_rows]).sum())
    assert 0 < los and 0 < nlos and 0 < n_t < n
    assert fading == [(3, (los,)), (2, (nlos,)), (1, (n - n_t, n_rf))]
    assert los + nlos == n_t * n_thz
    assert gains == [(desired_gain_pmf(cfg.antenna), (n_t,)),
                     (interferer_gain_pmf(cfg.antenna), (n_t, n_thz))]


def _global_argmax_oracle(cfg, dist, is_los):
    """(event, sinr) of every trial by the whole-network rule, with unit
    gains and fading: the winner maximises biased power over all APs, the
    interference sums the serving tier's other APs."""
    t = link_table(cfg)
    b_t = cfg.radio.B_T * mean_desired_gain(cfg.antenna)
    bias = np.array([b_t, b_t, 1.0])
    n, n_thz = is_los.shape
    is_thz = np.arange(dist.shape[1]) < n_thz
    cls = np.full(dist.shape, 2)
    cls[:, :n_thz] = np.where(is_los, 0, 1)
    power = t.amp[cls] * np.exp(-t.k_a[cls] * dist) * dist ** -t.alpha[cls]
    rows = np.arange(n)
    winner = np.argmax(power * bias[cls], axis=1)
    event = cls[rows, winner]
    same_tier = is_thz[None, :] == (event < 2)[:, None]
    others = same_tier & (np.arange(dist.shape[1]) != winner[:, None])
    interference = np.where(others, power, 0.0).sum(axis=1)
    return event, power[rows, winner] / (interference + t.noise[event])


def test_tier_winners_match_global_argmax(table3, monkeypatch):
    # per-tier winners and one comparison of the biased maxima pick the same
    # serving AP as the whole-network argmax, and the serving tier's sum
    # without the winner is its interference
    monkeypatch.setattr(montecarlo, "sample_fading",
                        lambda m, rng, size: np.ones(size))
    monkeypatch.setattr(montecarlo, "sample_gain",
                        lambda pmf, rng, size: np.ones(size))
    seen = set()
    for seed, b_t in enumerate((1e-6, 1.0, 1e6)):
        cfg = with_updates(table3, N_A=30, delta_T=0.8, B_T=b_t)
        dist, is_los = sample_deployment_arrays(
            cfg, np.random.default_rng(seed), 200)
        event, sinr, _ = _simulate_batch(cfg, np.random.default_rng(seed), 200)
        want_event, want_sinr = _global_argmax_oracle(cfg, dist, is_los)
        assert np.array_equal(event, want_event), b_t
        np.testing.assert_allclose(sinr, want_sinr, rtol=1e-12, atol=0)
        seen |= set(event.tolist())
    assert {0, 2} <= seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_a, delta", [(30, 0.0), (30, 1.0), (1, 0.0),
                                        (1, 1.0), (2, 0.5)])
def test_empty_tier_edges(table3, n_a, delta):
    # a tier without APs serves no trial, and nothing turns non-finite
    cfg = with_updates(table3, N_A=n_a, delta_T=delta)
    sim = estimate(cfg, MIN_TRIALS, seed=4)
    assert sum(_counts(sim)) == sim.n_trials == MIN_TRIALS
    if cfg.geometry.n_thz == 0:
        assert _counts(sim)[:2] == (0, 0)
    if cfg.geometry.n_rf == 0:
        assert _counts(sim)[2] == 0
    for est in (sim.coverage, sim.rate):
        assert math.isfinite(est.mean) and math.isfinite(est.half_width_95)


def test_fading_follows_the_serving_class(table3, monkeypatch):
    # constant fading per class, keyed by its Nakagami shape (LOS m_L = 3
    # gives 2, NLOS m_N = 2 gives 3, RF m = 1 gives 5): with one AP the SINR
    # is that constant times the SNR of the hand formula, so a class mix-up
    # in the fading draws shows
    base = with_updates(table3, m_N=2)
    constant = {3: 2.0, 2: 3.0, 1: 5.0}
    monkeypatch.setattr(montecarlo, "sample_fading",
                        lambda m, rng, size: np.full(size, constant[m]))
    r = base.radio
    g1 = base.antenna.g_T_max * base.antenna.g_U_max

    thz = with_updates(base, N_A=1, delta_T=1.0, lambda_B=0.5)
    seen = set()
    for seed in range(40):
        (dist, is_los), (event, sinr) = _trial(thz, seed)
        assert is_los.shape == (1,) and event == (0 if is_los[0] else 1)
        m = r.m_L if is_los[0] else r.m_N
        snr = _thz_power(r, g1, dist[0], is_los[0]) / r.sigma2_T
        assert sinr == pytest.approx(constant[m] * snr, rel=1e-12)
        seen.add(m)
    assert seen == {3, 2}

    rf = with_updates(base, N_A=1, delta_T=0.0)
    (dist, is_los), (event, sinr) = _trial(rf, 3)
    assert is_los.size == 0 and event == 2
    snr = r.P_R * path_gain(RF, dist[0], r) / r.sigma2_R
    assert sinr == pytest.approx(constant[1] * snr, rel=1e-12)


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


@pytest.mark.parametrize("k_a", [25.0, 40.0, 50.0])
def test_association_by_log_power_at_large_absorption(table3, k_a):
    # all-THz at large absorption: every linear THz power of some trials
    # underflows, yet each trial's event is that of the log-power argmax
    cfg = with_updates(table3, delta_T=1.0, k_a=k_a)
    n = 4000
    dist, is_los = sample_deployment_arrays(cfg, np.random.default_rng(11), n)
    event, _, _ = _simulate_batch(cfg, np.random.default_rng(11), n)
    r = cfg.radio
    alpha = np.where(is_los, r.alpha_L, r.alpha_N)
    log_power = math.log(r.P_T * r.gamma_T) - alpha * np.log(dist) - k_a * dist
    assert (log_power.max(axis=1) < math.log(np.finfo(float).tiny)).any()
    los = is_los[np.arange(n), log_power.argmax(axis=1)]
    assert np.array_equal(event, np.where(los, 0, 1))
    assert 0.80 < np.mean(event == 0) < 0.85


def test_zero_bias_keeps_thz_only_where_no_rf_ap(table3):
    # B_T = 0 scores THz at -inf: RF serves every trial where RF APs exist,
    # THz where none do, and no RuntimeWarning is raised (tier-1 makes one
    # an error)
    mixed = estimate(with_updates(table3, B_T=0.0), MIN_TRIALS, seed=6)
    assert _counts(mixed) == (0, 0, MIN_TRIALS)
    thz = estimate(with_updates(table3, B_T=0.0, delta_T=1.0), MIN_TRIALS, seed=6)
    assert _counts(thz)[2] == 0 and sum(_counts(thz)) == MIN_TRIALS


def test_bias_times_amplitude_past_the_float_range(table3):
    # B_T E[g_des] P_T gamma_T overflows a float; THz's log power, a sum of
    # logs, is finite and beats every RF AP, with no warning
    sim = estimate(with_updates(table3, B_T=1e308), MIN_TRIALS, seed=6)
    assert sim.cond_coverage.rf.n_trials == 0
    assert sum(_counts(sim)) == MIN_TRIALS
