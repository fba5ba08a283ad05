import math
import warnings

import numpy as np
import pytest

from conftest import path_gain, random_config
import hexnet.analytic as analytic
from hexnet import with_updates
from hexnet.analytic import (
    DEGENERATE_EVENT_TOL,
    AnalyticEngine,
    EVENTS,
    TierMetrics,
)
from hexnet.antenna import mean_desired_gain
from hexnet.cli import VALIDATE_SLACK_PROB, VALIDATE_SLACK_RATE
from hexnet.errors import DegenerateEvent, NumericalInconsistency
from hexnet.geometry import distance_pdf
from hexnet.montecarlo import estimate
from hexnet.numerics import Quadrature, integrate, integrate_semiinfinite
from hexnet.propagation import LinkClass, kappa_los, kappa_nlos


def test_assoc_simplex_table3(engine):
    a = engine.assoc_probabilities()
    assert a.los + a.nlos + a.rf == pytest.approx(1.0, abs=1e-6)
    assert min(a.los, a.nlos, a.rf) >= 0.0


def test_assoc_simplex_random_configs(table3):
    rng = np.random.default_rng(100)
    for _ in range(15):
        cfg = random_config(table3, rng)
        a = AnalyticEngine(cfg).assoc_probabilities()
        assert a.los + a.nlos + a.rf == pytest.approx(1.0, abs=1e-6), cfg


def test_assoc_degenerate_fractions(table3):
    a0 = AnalyticEngine(with_updates(table3, delta_T=0.0)).assoc_probabilities()
    assert (a0.los, a0.nlos, a0.rf) == (0.0, 0.0, 1.0)
    a1 = AnalyticEngine(with_updates(table3, delta_T=1.0)).assoc_probabilities()
    assert a1.rf == 0.0
    assert a1.los + a1.nlos == pytest.approx(1.0, abs=1e-6)


def test_assoc_rejects_zero_bias(table3):
    with pytest.raises(ValueError, match="B_T"):
        AnalyticEngine(with_updates(table3, B_T=0.0))


def test_assoc_monotone_in_bias(table3):
    vals = []
    for b in (0.05, 0.5, 1.0, 5.0, 50.0):
        a = AnalyticEngine(with_updates(table3, B_T=b)).assoc_probabilities()
        vals.append(a.los + a.nlos)
    assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))


def test_serving_pdf_normalizes(engine):
    sup = engine.sup
    assoc = engine.assoc_probabilities()
    for event in EVENTS:
        if assoc.get(event) < 1e-3:
            continue
        q = Quadrature(rel_tol=1e-8, abs_tol=1e-12,
                       breakpoints=engine._event_breakpoints(event))
        val = integrate(lambda x, e=event: engine.serving_distance_pdf(e, x),
                        sup.z_l, sup.z_p, q).value
        assert val == pytest.approx(1.0, abs=1e-6)


def test_serving_pdf_support(engine):
    sup = engine.sup
    assert engine.serving_distance_pdf("L", sup.z_l - 0.01) == 0.0
    assert engine.serving_distance_pdf("L", sup.z_p + 0.01) == 0.0
    xs = np.linspace(sup.z_l, sup.z_p, 200)
    assert np.all(engine.serving_distance_pdf("L", xs) >= 0.0)


def test_serving_pdf_zero_outside_support(table3):
    # Table 3 and the off-centre point of the coverage sweep
    for v_0 in (0.0, 10.0):
        eng = AnalyticEngine(with_updates(table3, v_0=v_0))
        sup = eng.sup
        assoc = eng.assoc_probabilities()
        outside = (sup.z_l - 0.01, 0.0, -5.0, sup.z_p + 0.01)
        xs = np.concatenate([[-1.0, 0.0, sup.z_l - 1e-6],
                             np.linspace(sup.z_l, sup.z_p, 9),
                             [sup.z_p + 1e-6, 2.0 * sup.z_p]]).reshape(2, 7)
        inside = (xs >= sup.z_l) & (xs <= sup.z_p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for event in EVENTS:
                a = assoc.get(event)
                if a <= DEGENERATE_EVENT_TOL:
                    continue
                for x in outside:
                    val = eng.serving_distance_pdf(event, x)
                    assert type(val) is float and val == 0.0, (v_0, event, x)
                pdf = eng.serving_distance_pdf(event, xs)
                assert pdf.shape == xs.shape
                assert np.all(pdf[~inside] == 0.0)
                assert np.array_equal(pdf[inside],
                                      eng._weight(event, xs[inside]) / a)


def test_serving_pdf_degenerate_event(table3):
    eng = AnalyticEngine(with_updates(table3, delta_T=0.0))
    with pytest.raises(DegenerateEvent):
        eng.serving_distance_pdf("L", 10.0)


def _laplace(eng, event, s, x):
    """L_I(s) at serving distance x: the order-0 Laplace coefficient."""
    table = eng._serving_table(event, np.array([float(x)]))
    return float(eng._laplace_coeffs(event, table, np.array([[float(s)]]),
                                     0)[0, 0, 0])


def test_laplace_at_zero_is_one(engine):
    rng = np.random.default_rng(8)
    for event in EVENTS:
        for x in rng.uniform(engine.sup.z_l, engine.sup.z_p, size=4):
            assert _laplace(engine, event, 0.0, float(x)) == \
                pytest.approx(1.0, abs=1e-9)


def test_laplace_monotone_decreasing(engine):
    x = 10.0
    for event in EVENTS:
        s_grid = np.geomspace(1e8, 1e16, 20)
        vals = [_laplace(engine, event, float(s), x) for s in s_grid]
        assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_laplace_no_interferers(table3):
    # a single THz AP leaves the THz tiers interference-free
    eng = AnalyticEngine(with_updates(table3, delta_T=0.05))   # 1 of 20
    assert eng.n_thz == 1
    for s in (0.0, 1e10, 1e14):
        assert _laplace(eng, "L", s, 10.0) == 1.0


def test_laplace_jet_argument(engine):
    # the jet of L in its argument s: value, sign pattern of a completely
    # monotone transform, and central differences of the scalar transform
    s0, x = 1e12, 8.0
    table = engine._serving_table("L", np.array([x]))
    jet = engine._laplace_coeffs("L", table, np.array([[s0]]), 2)[:, 0, 0]
    scalar = _laplace(engine, "L", s0, x)
    assert jet[0] == pytest.approx(scalar, rel=1e-12)
    assert jet[1] < 0 < jet[2]
    h = 0.05 * s0
    lap = [_laplace(engine, "L", s0 + k * h, x) for k in (-1, 0, 1)]
    assert jet[1] == pytest.approx((lap[2] - lap[0]) / (2 * h), rel=1e-3)
    # second derivative: coeffs[2] is L''/2
    assert 2 * jet[2] == pytest.approx((lap[2] - 2 * lap[1] + lap[0]) / h**2,
                                       rel=1e-2)


def test_laplace_without_interferer_mass_raises(engine):
    # at x = z_p the N and R events leave no room for their interferers,
    # while the L event still has NLOS interferers inside e_ln(z_p)
    zp = engine.sup.z_p
    for event in ("N", "R"):
        with pytest.raises(DegenerateEvent, match="interferer mass"):
            _laplace(engine, event, 1e12, zp)
    assert engine.excl.e_ln(zp) < zp
    val = _laplace(engine, "L", 1e12, zp)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(
        _laplace(engine, "L", 1e12, np.nextafter(zp, 0.0)), rel=1e-9)


def test_laplace_vector_matches_per_x(table3):
    # one kernel call over many serving distances equals one call per x
    sig = math.radians(10.0)
    cases = {
        "table3": table3,
        "v_0=10": with_updates(table3, v_0=10.0),       # pieces split at z_m
        "sigma_eps=10": with_updates(table3, sigma_eps_T=sig, sigma_eps_U=sig),
        "n_thz=1": with_updates(table3, delta_T=0.05),  # bracket_exp = 0
    }
    thresholds = np.geomspace(0.01, 100.0, 10)
    # a wide order-0 case: 105 expansion points per x over twelve decades,
    # more points and a wider range than the coverage thresholds
    wide_ts = np.geomspace(1e-6, 1e6, 105)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, cfg in cases.items():
            eng = AnalyticEngine(cfg)
            sup = eng.sup
            assert (name == "v_0=10") == (eng.vmap.v_m in eng._inner_breaks)
            xs = np.linspace(sup.z_l, sup.z_p, 121)
            # the N segment of LOS interferers is empty for the largest x
            assert np.any(eng.excl.e_nl(xs[:-1]) >= sup.z_p)
            for event in EVENTS:
                ev = eng._ev[event]
                n_exp = ev["tiers"][ev["own"]][0]
                # no interferer mass at z_p for N and R (tested above)
                xe = xs if event == "L" else xs[:-1]
                s_x = eng._s_factor(event, xe)
                nu0_cov = (s_x[:, None, None] * thresholds[:, None]
                           / ev["gains"]).reshape(xe.size, -1)
                nu0_wide = s_x[:, None] / ev["m"] * wide_ts
                for order, nu0 in ((ev["m"] - 1, nu0_cov), (0, nu0_wide)):
                    vec = eng._laplace_coeffs(
                        event, eng._serving_table(event, xe), nu0, order)
                    per = np.stack(
                        [eng._laplace_coeffs(
                            event, eng._serving_table(event, xe[i:i + 1]),
                            nu0[i:i + 1], order)[:, 0]
                         for i in range(xe.size)], axis=1)
                    assert vec.shape == (order + 1, xe.size, nu0.shape[1])
                    scale = np.abs(per).max(axis=2, keepdims=True)
                    assert np.all(np.abs(vec - per)
                                  <= eng.q_inner.rel_tol * scale), \
                        (name, event, order)
                    if n_exp == 0:
                        assert np.all(vec[0] == 1.0) and np.all(vec[1:] == 0.0)


def test_inner_calls_batched_over_serving_distances(table3, monkeypatch):
    # a guard against one inner integral per outer node or per slice of
    # serving distances, counted, not timed: each outer sweep makes exactly
    # one inner integral per interferer class with mass, however wide the
    # kernel (m_L = 10, and gain atoms from a 10 degree misalignment)
    sig = math.radians(10.0)
    eng = AnalyticEngine(with_updates(table3, m_L=10, sigma_eps_T=sig,
                                      sigma_eps_U=sig))
    eng.assoc_probabilities()
    ev = eng._ev["L"]
    classes = ev["tiers"][ev["own"]][1]
    inner_calls = [0]
    sweeps = []     # (inner calls, classes with mass) per outer integrand call
    plain = analytic.integrate

    def counting(f, a, b, q=None):
        if q is eng.q_inner:
            inner_calls[0] += 1
            return plain(f, a, b, q)

        def outer(vs):
            before = inner_calls[0]
            out = f(vs)
            table = eng._serving_table("L", eng.vmap.z(vs)[0])
            pos = table.w > 0.0
            with_mass = sum(bool((table.mass[c][pos] > 0.0).any())
                            for c in classes)
            sweeps.append((inner_calls[0] - before, with_mass))
            return out
        return plain(outer, a, b, q)

    monkeypatch.setattr(analytic, "integrate", counting)
    eng.conditional_coverage("L")
    assert len(sweeps) > 1 and all(n == 2 for _, n in sweeps)
    assert all(calls == n for calls, n in sweeps), sweeps


def test_rate_builds_one_bracket_table_per_class_without_inner_calls(
        table3, monkeypatch):
    # counted, not timed: the rate makes no inner-level integral; it builds
    # one bracket table per interferer class on the first conditional_rate,
    # and none again; coverage() builds none
    eng = AnalyticEngine(table3, rel_tol=1e-4)
    inner_calls = [0]
    builds = []
    plain = analytic.integrate
    plain_tail = analytic.TailIntegral

    def counting(f, a, b, q=None):
        if q is eng.q_inner:
            inner_calls[0] += 1
        return plain(f, a, b, q)

    def building(f, a, b, q=None):
        builds.append(f)
        return plain_tail(f, a, b, q)

    monkeypatch.setattr(analytic, "integrate", counting)
    monkeypatch.setattr(analytic, "TailIntegral", building)
    eng.coverage()
    assert builds == [] and inner_calls[0] > 0
    inner_calls[0] = 0
    for event in EVENTS:
        eng.conditional_rate(event)
    assert inner_calls[0] == 0
    assert sorted(eng._brackets) == ["L", "N", "R"]
    assert len(builds) == 3
    eng.report()
    assert len(builds) == 3 and inner_calls[0] > 0


def test_laplace_r_against_conditional_mc(table3):
    # independent oracle: E[exp(-s I_R) | RF serving at ~x] from raw deployments
    rng = np.random.default_rng(77)
    eng = AnalyticEngine(table3)
    g, r = table3.geometry, table3.radio
    x_pick, half_bin = 12.0, 0.6
    s = 0.5 / (r.P_R * r.gamma_R * x_pick**-r.alpha_R)  # moderate decay

    n = 400_000
    radii = g.r_d * np.sqrt(rng.random((n, g.N_A)))
    ang = 2 * math.pi * rng.random((n, g.N_A))
    d = np.sqrt(radii**2 - 2 * g.v_0 * radii * np.cos(ang) + g.v_0**2
                + (g.h_A - g.h_U) ** 2)
    # first n_rf columns are the RF APs (positions are exchangeable)
    d_rf = d[:, :g.n_rf]
    d_thz = d[:, g.n_rf:]
    mean_gain = mean_desired_gain(table3.antenna)
    beta = table3.blockage.beta(g.h_A, g.h_U)
    los = rng.random(d_thz.shape) < np.exp(
        -beta * np.sqrt(np.maximum(d_thz**2 - g.delta_h**2, 0.0)))
    alpha_t = np.where(los, r.alpha_L, r.alpha_N)
    p_thz = (r.B_T * r.P_T * r.gamma_T * mean_gain
             * np.exp(-r.k_a * d_thz) * d_thz**-alpha_t).max(axis=1)
    order = np.argsort(d_rf, axis=1)
    d_sorted = np.take_along_axis(d_rf, order, axis=1)
    p_rf = r.P_R * r.gamma_R * d_sorted[:, 0] ** -r.alpha_R
    serving_rf = p_rf > p_thz
    in_bin = serving_rf & (np.abs(d_sorted[:, 0] - x_pick) < half_bin)
    fades = rng.standard_exponential(d_sorted[:, 1:].shape)
    i_r = (r.P_R * r.gamma_R * d_sorted[:, 1:] ** -r.alpha_R * fades).sum(axis=1)
    samples = np.exp(-s * i_r[in_bin])
    assert samples.size > 3000
    mc = samples.mean()
    ci = 1.96 * samples.std() / math.sqrt(samples.size)
    analytic = _laplace(eng, "R", s, x_pick)
    assert abs(analytic - mc) <= ci + 0.01


def test_coverage_near_zero_threshold(table3):
    eng = AnalyticEngine(with_updates(table3, theta=1e-8))
    for event in EVENTS:
        assert eng.conditional_coverage(event) == pytest.approx(1.0, abs=1e-4)


def test_m1_reduction_oracle(table3):
    # with m_L = 1 the q-sum collapses to exp(-s sigma^2/G) L(s/G); rebuild
    # that form from the public pieces and compare with the jet machinery
    cfg = with_updates(table3, m_L=1)
    eng = AnalyticEngine(cfg)
    theta = cfg.radio.theta
    sig2 = cfg.radio.sigma2_T
    gains = np.asarray(eng.pmf_desired.gains)
    probs = np.asarray(eng.pmf_desired.probs)
    amp = cfg.radio.P_T * cfg.radio.gamma_T

    def rayleigh_form(x):
        s = theta * math.exp(cfg.radio.k_a * x) * x**cfg.radio.alpha_L / amp
        acc = 0.0
        for g_k, p_k in zip(gains, probs):
            if p_k == 0.0:
                continue
            acc += p_k * math.exp(-s * sig2 / g_k) * \
                _laplace(eng, "L", s / g_k, x)
        return acc

    q = Quadrature(rel_tol=1e-7, abs_tol=1e-11,
                   breakpoints=eng._event_breakpoints("L"))

    def integrand(xs):
        w = eng._weight("L", xs)
        out = np.zeros_like(xs)
        for i, x in enumerate(xs):
            if w[i] > 0:
                out[i] = w[i] * rayleigh_form(float(x))
        return out

    direct = integrate(integrand, eng.sup.z_l, eng.sup.z_p, q).value / \
        eng.assoc_probabilities().los
    assert eng.conditional_coverage("L") == pytest.approx(direct, abs=1e-6)


def test_coverage_mixture_bound(engine):
    rep = engine.coverage()
    conds = [rep.cond_coverage.get(e) for e in EVENTS
             if rep.assoc.get(e) > DEGENERATE_EVENT_TOL]
    assert min(conds) - 1e-9 <= rep.total_coverage <= max(conds) + 1e-9
    recomputed = sum(rep.assoc.get(e) * rep.cond_coverage.get(e) for e in EVENTS
                     if rep.assoc.get(e) > DEGENERATE_EVENT_TOL)
    assert rep.total_coverage == pytest.approx(recomputed, rel=1e-12)


def test_coverage_monotone_in_threshold(table3):
    vals = []
    for theta_db in (-10.0, 0.0, 10.0):
        cfg = with_updates(table3, theta=10 ** (theta_db / 10))
        vals.append(AnalyticEngine(cfg).coverage().total_coverage)
    assert vals[0] >= vals[1] >= vals[2]


def test_rate_linear_in_bandwidth(table3):
    base = AnalyticEngine(table3).conditional_rate("L")
    doubled = AnalyticEngine(
        with_updates(table3, W_T=2 * table3.radio.W_T)).conditional_rate("L")
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_rate_rejects_negative_mean_log(table3, monkeypatch):
    # a negative Hamdi integrand raises instead of clamping to rate 0
    eng = AnalyticEngine(table3, rel_tol=1e-4)
    monkeypatch.setattr(eng, "_rate_laplace", lambda event, table: -1.0)
    with pytest.raises(NumericalInconsistency, match="event L"):
        eng.conditional_rate("L")


def _threshold_mean_log(eng, event, x, q):
    """Oracle: E[ln(1 + SINR) | x] by the threshold integral
    int_0^inf P[SINR > t | x] / (1 + t) dt, with the gamma tail at every t
    assembled from the Laplace derivatives up to order m - 1, cut at the
    decades from 1e-12 to 100 times the mean SNR."""
    ev = eng._ev[event]
    m, gains, probs = ev["m"], ev["gains"], ev["probs"]
    s1 = eng._s_factor(event, np.array([x]))[0]

    def ccdf(ts):
        nu = (s1 * ts)[:, None] / gains                    # (T, gains)
        lam = nu * ev["noise"]
        table = eng._serving_table(event, np.full(ts.size, x))
        lc = eng._laplace_coeffs(event, table, nu, m - 1)
        pois = [np.exp(-lam)]
        for j in range(1, m):
            pois.append(pois[-1] * lam / j)
        cum = np.cumsum(pois, axis=0)
        return sum((-nu) ** u * lc[u] * cum[m - 1 - u] for u in range(m)) @ probs

    snr = m / s1 * (probs @ gains) / ev["noise"]
    top = math.ceil(math.log10(snr)) + 2
    q = Quadrature(q.rel_tol, q.abs_tol,
                   breakpoints=tuple(10.0 ** np.arange(-12, top)))
    return integrate_semiinfinite(ccdf, q).value


def test_rate_kernel_matches_threshold_integral(table3):
    # Hamdi's lemma against the threshold integral, per serving distance,
    # within ten times the oracle's own tolerance
    sig = math.radians(10.0)
    cases = {
        "table3": table3,
        "sigma_eps=10": with_updates(table3, sigma_eps_T=sig, sigma_eps_U=sig),
        "v_0=40": with_updates(table3, v_0=40.0),
        "m=10": with_updates(table3, m_L=10, m_N=10),
        "N_A=2": with_updates(table3, N_A=2, delta_T=0.5),
    }
    for name, cfg in cases.items():
        eng = AnalyticEngine(cfg, rel_tol=1e-9)
        q = Quadrature(rel_tol=1e-9, abs_tol=1e-9)
        assoc = eng.assoc_probabilities()
        xs = np.linspace(eng.sup.z_l, eng.sup.z_p, 9)[1:-1]
        for event in EVENTS:
            if assoc.get(event) <= DEGENERATE_EVENT_TOL:
                continue
            got = eng._rate_kernel(event, eng._serving_table(event, xs))
            want = np.array([_threshold_mean_log(eng, event, x, q) for x in xs])
            tol = 10.0 * max(q.abs_tol, q.rel_tol * want.max())
            assert np.abs(got - want).max() <= tol, (name, event)


def test_rate_single_ap_closed_form(table3):
    # one THz AP, no interferers: the NLOS link has Rayleigh fading (m = 1),
    # so E ln(1 + snr h) = e^{1/snr} E_1(1/snr) = U(1, 1, 1/snr) per serving
    # distance, down to the far x whose mean log sits near 1e-5
    from scipy.special import hyperu

    cfg = with_updates(table3, N_A=1, delta_T=1.0)
    r, a, g = cfg.radio, cfg.antenna, cfg.geometry
    eng = AnalyticEngine(cfg)
    assert eng.n_thz == 1 and r.m_N == 1 and a.sigma_eps_T == a.sigma_eps_U == 0.0
    sup = eng.sup
    g1 = a.g_T_max * a.g_U_max

    def density(xs):
        return (distance_pdf(xs, sup, g.v_0, g.r_d)
                * kappa_nlos(xs, cfg.blockage.beta(g.h_A, g.h_U), g.delta_h))

    def mean_log(xs):
        snr = r.P_T * g1 * path_gain(LinkClass.THZ_NLOS, xs, r) / r.sigma2_T
        return hyperu(1.0, 1.0, 1.0 / snr)

    q = Quadrature(rel_tol=1e-11, abs_tol=1e-15, breakpoints=(sup.z_m,))
    num = integrate(lambda xs: density(xs) * mean_log(xs), sup.z_l, sup.z_p, q)
    den = integrate(density, sup.z_l, sup.z_p, q)
    want = r.W_T / math.log(2.0) * num.value / den.value
    assert eng.conditional_rate("N") == pytest.approx(want, rel=1e-6)


def test_rate_nonnegative_and_total(engine):
    rep = engine.report()
    for e in EVENTS:
        if rep.assoc.get(e) > DEGENERATE_EVENT_TOL:
            assert rep.cond_rate.get(e) >= 0.0
    recomputed = sum(rep.assoc.get(e) * rep.cond_rate.get(e) for e in EVENTS
                     if rep.assoc.get(e) > DEGENERATE_EVENT_TOL)
    assert rep.total_rate == pytest.approx(recomputed, rel=1e-12)


def test_rf_only_coverage_is_total(table3):
    eng = AnalyticEngine(with_updates(table3, delta_T=0.0))
    rep = eng.coverage()
    assert rep.total_coverage == pytest.approx(rep.cond_coverage.rf, rel=1e-12)
    assert math.isnan(rep.cond_coverage.los)


def test_tier_metrics_accessors():
    t = TierMetrics(0.2, 0.3, 0.5)
    assert t.get("L") == 0.2 and t.get("N") == 0.3 and t.get("R") == 0.5


@pytest.mark.parametrize("k_a", [18.0, 25.0])
def test_large_absorption_is_finite(table3, k_a):
    # e^{k_a r / alpha} would overflow in some balances at z_p; the balances
    # are solved in log power, so every boundary against a THz AP is finite
    # and only one against an RF AP may be +inf, never NaN.  All-THz
    # (delta_T = 1), the serving power underflows at far serving distances,
    # where the coverage and rate terms are 0.  No warning is raised, on
    # Table 3 as given and all-THz.
    for delta_t in (table3.geometry.delta_T, 1.0):
        eng = AnalyticEngine(with_updates(table3, k_a=k_a, delta_T=delta_t),
                             rel_tol=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zp = {key: getattr(eng.excl, "e_" + key)(eng.sup.z_p)
                     for key in ("lr", "ln", "nr", "nl", "rl", "rn")}
            reps = (eng.coverage(), eng.report())
        assert not any(math.isnan(v) for v in at_zp.values())
        assert all(math.isfinite(at_zp[key]) for key in ("ln", "nl", "rl", "rn"))
        for rep in reps:
            assert math.isfinite(rep.total_coverage)
            for e in EVENTS:
                assert math.isfinite(rep.assoc.get(e))
                if rep.assoc.get(e) > DEGENERATE_EVENT_TOL:
                    assert math.isfinite(rep.cond_coverage.get(e))
        assert math.isfinite(rep.total_rate)
        assert rep.total_rate > 0.0 if delta_t < 1.0 else rep.total_rate >= 0.0


@pytest.mark.parametrize("k_a", [25.0, 40.0, 50.0])
def test_thz_association_at_large_absorption_against_mc(table3, k_a):
    # all-THz: the serving distances where both linear THz powers underflow
    # keep their association mass, so A_L + A_N = 1 to the engine's
    # tolerance, and A_L and A_N each match the log-power Monte-Carlo within
    # its binomial CI plus the validate rule's slack
    cfg = with_updates(table3, delta_T=1.0, k_a=k_a)
    eng = AnalyticEngine(cfg)
    a = eng.assoc_probabilities()
    assert abs(a.los + a.nlos - 1.0) <= 10 * eng.q_outer.rel_tol
    n = 100_000
    sim = estimate(cfg, n, seed=5)
    for an, mc in ((a.los, sim.assoc.los), (a.nlos, sim.assoc.nlos)):
        ci = 1.96 * math.sqrt(mc * (1.0 - mc) / n)
        assert abs(an - mc) <= ci + VALIDATE_SLACK_PROB


def test_nearly_coplanar_aps_report_is_finite(table3):
    # with the APs nearly coplanar with the UE the interferer mass beyond a
    # boundary can be tiny but positive and the mean SNR exceeds 1e16:
    # report() is finite and in range at every offset, without a warning,
    # and at one offset matches a seeded Monte-Carlo under the validate rule
    for offset in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        cfg = with_updates(table3, h_A=1.4 + offset)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = AnalyticEngine(cfg, rel_tol=1e-4).report()
        assert 0.0 <= rep.total_coverage <= 1.0, offset
        assert math.isfinite(rep.total_rate) and rep.total_rate > 0.0, offset
        for e in EVENTS:
            if rep.assoc.get(e) > DEGENERATE_EVENT_TOL:
                assert 0.0 <= rep.cond_coverage.get(e) <= 1.0, (offset, e)
                assert 0.0 <= rep.cond_rate.get(e) < math.inf, (offset, e)
        if offset == 1e-5:
            sim = estimate(cfg, 100_000, seed=11)
            ci = sum(1.96 * math.sqrt(p * (1.0 - p) / sim.n_trials)
                     for p in (sim.assoc.los, sim.assoc.nlos))
            assert abs(rep.assoc.los + rep.assoc.nlos - sim.assoc.los
                       - sim.assoc.nlos) <= ci + VALIDATE_SLACK_PROB
            assert abs(rep.total_coverage - sim.coverage.mean) <= (
                sim.coverage.half_width_95 + VALIDATE_SLACK_PROB)
            assert abs(rep.total_rate - sim.rate.mean) <= (
                sim.rate.half_width_95 + VALIDATE_SLACK_RATE * sim.rate.mean)


@pytest.mark.parametrize("s_unit", [1e300, 1e307, 1e308])
def test_rate_kernel_at_vanishing_serving_power(table3, s_unit):
    # unit gains and k_a = 25: at the serving distance where s(x) = s_unit the
    # serving power is positive (1e307, 1e308: near the smallest double) and
    # the mean SNR is far below t_0, so the kernel is 0, without a warning
    from scipy.optimize import brentq

    eng = AnalyticEngine(with_updates(table3, k_a=25.0, delta_T=1.0,
                                      g_T_max=1.0, g_U_max=1.0), rel_tol=1e-4)
    for event in ("L", "N"):
        ev = eng._ev[event]
        log_s = lambda x: (math.log(ev["m"] / ev["amp"]) + ev["k_a"] * x
                           + ev["alpha"] * math.log(x) - math.log(s_unit))
        x = brentq(log_s, eng.sup.z_l, eng.sup.z_p)
        assert 0.0 < ev["m"] / eng._s_factor(event, np.array([x]))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = eng._serving_table(event, np.array([x]))
            assert eng._rate_kernel(event, table)[0] == 0.0


def test_pointwise_values_independent_of_batch(engine):
    # on 2,000 serving distances, the LOS and NLOS tail masses, an exclusion
    # boundary and each event's weight computed in one array equal their
    # values alone, bit for bit: no value depends on the batch it is
    # computed in
    xs = np.random.default_rng(5).uniform(engine.sup.z_l, engine.sup.z_p, 2000)
    cases = {
        "tail": (engine.tail, engine.vmap.v(xs)),
        "e_rl": (engine.excl.e_rl, xs),
        **{"weight_" + e: (lambda x, e=e: engine._weight(e, x), xs)
           for e in EVENTS},
    }
    for name, (fn, args) in cases.items():
        got = fn(args)
        alone = np.array([fn(float(a)) for a in args])
        assert np.array_equal(got, alone), name


@pytest.mark.parametrize("overrides", [
    {}, {"v_0": 40.0},
    {"lambda_B": 0.0},     # no blockers: the NLOS column is identically 0
    {"lambda_B": 20.0},    # heavy blockage: the LOS column holds 4e-4
], ids=["table3", "v_0=40", "lambda_B=0", "lambda_B=20"])
def test_tail_columns_against_quad(table3, overrides):
    # the LOS and NLOS tail masses, and their sum (the RF class's mass), at
    # several lower limits against QUADPACK in z: each within the tail's
    # rel_tol of its own total, however small that total is
    from scipy.integrate import quad

    eng = AnalyticEngine(with_updates(table3, **overrides))
    sup, g = eng.sup, eng.cfg.geometry
    fz = lambda z: distance_pdf(z, sup, g.v_0, g.r_d)
    beta = eng.cfg.blockage.beta(g.h_A, g.h_U)
    kl = lambda z: kappa_los(z, beta, g.delta_h)
    columns = (lambda z: fz(z) * kl(z), lambda z: fz(z) * kappa_nlos(
        z, beta, g.delta_h), fz)
    totals = (*eng.tail.total, eng.tail.total.sum())
    rel_tol = 1e-11
    if overrides.get("lambda_B") == 0.0:
        assert totals[1] == 0.0
    if overrides.get("lambda_B") == 20.0:
        assert totals[0] < 1e-3
    span = sup.z_p - sup.z_l
    for z0 in (sup.z_l, sup.z_l + 1e-3, sup.z_l + 0.3 * span, sup.z_m,
               sup.z_p - 0.1):
        got = eng.tail(eng.vmap.v(z0))
        got = (got[0], got[1], got.sum())
        points = [sup.z_m] if z0 < sup.z_m < sup.z_p else None
        for k, (f, total) in enumerate(zip(columns, totals)):
            want, _ = quad(f, z0, sup.z_p, points=points, epsabs=0.0,
                           epsrel=1e-13, limit=500)
            if total == 0.0:
                assert got[k] == 0.0 and want == 0.0
            else:
                assert abs(got[k] - want) <= rel_tol * total, (z0, k)


@pytest.mark.parametrize("overrides", [
    {}, {"v_0": 40.0},
    {"sigma_eps_T": math.radians(10.0), "sigma_eps_U": math.radians(10.0)},
], ids=["table3", "v_0=40", "sigma_eps=10"])
def test_report_at_default_tolerance_against_tight(table3, overrides):
    # every output of report() at the default rel_tol is within ten times
    # that tolerance of an engine at rel_tol 1e-10
    cfg = with_updates(table3, **overrides)
    eng = AnalyticEngine(cfg)
    got = _cells(eng.report())
    want = _cells(AnalyticEngine(cfg, rel_tol=1e-10).report())
    assert np.allclose(got, want, rtol=10.0 * eng.q_outer.rel_tol, atol=0.0)


def test_outer_integrals_start_on_association_panels(table3, monkeypatch):
    # an event's coverage and rate integrals start on the panels its
    # association integral ended on, not on the event breakpoints again
    eng = AnalyticEngine(table3)
    calls = []
    plain = analytic.integrate

    def recording(f, a, b, q=None):
        res = plain(f, a, b, q)
        if q is not eng.q_inner:
            calls.append((q.breakpoints, res.breakpoints))
        return res

    monkeypatch.setattr(analytic, "integrate", recording)
    eng.report()
    # association, coverage and rate, each for L, N and R in turn
    assert len(calls) == 9
    for i, event in enumerate(EVENTS):
        started, ended = calls[i]
        assert started == eng._event_cuts(event)
        assert calls[3 + i][0] == ended and calls[6 + i][0] == ended, event
    # the N event's association refines its panels (L's and R's need none)
    assert set(calls[1][0]) < set(calls[1][1])


def test_one_tail_lookup_per_outer_sweep(table3, monkeypatch):
    # an outer sweep looks up the tail masses of all its classes at once,
    # and the Laplace kernel reads them from the sweep's serving table
    eng = AnalyticEngine(table3)
    counts = {"lookups": 0, "sweeps": 0}
    tail = eng.tail

    def lookup(v):
        counts["lookups"] += 1
        return tail(v)

    plain = analytic.integrate

    def counting(f, a, b, q=None):
        if q is eng.q_inner:
            return plain(f, a, b, q)

        def outer(xs):
            counts["sweeps"] += 1
            return f(xs)
        return plain(outer, a, b, q)

    monkeypatch.setattr(eng, "tail", lookup)
    monkeypatch.setattr(analytic, "integrate", counting)
    eng.coverage()
    assert counts["sweeps"] > 6
    assert counts["lookups"] == counts["sweeps"]


@pytest.mark.parametrize("v_0", [0.0, 10.0, 40.0, 79.0])
def test_assoc_against_independent_quadrature(table3, v_0):
    # at rel_tol 1e-10 the association probabilities meet it against
    # QUADPACK's adaptive rule on the same weight, run in z
    from scipy.integrate import quad

    eng = AnalyticEngine(with_updates(table3, v_0=v_0), rel_tol=1e-10)
    assoc = eng.assoc_probabilities()
    for event in EVENTS:
        want, _ = quad(lambda x: eng._weight(event, x), eng.sup.z_l, eng.sup.z_p,
                       points=eng._event_breakpoints(event), epsabs=0.0,
                       epsrel=1e-13, limit=200)
        assert assoc.get(event) == pytest.approx(want, rel=1e-10, abs=0.0), \
            event


def _cells(rep):
    return np.array([*(rep.assoc.get(e) for e in EVENTS),
                     *(rep.cond_coverage.get(e) for e in EVENTS),
                     rep.total_coverage,
                     *(rep.cond_rate.get(e) for e in EVENTS), rep.total_rate])


@pytest.mark.parametrize("v_0", [79.9, 80.0])
def test_disk_edge_matches_tight_tolerance(table3, v_0):
    # at and next to the disk edge (z_m = z_l at v_0 = r_d), coverage() and
    # report() at rel_tol 1e-4 agree with rel_tol 1e-7, and nothing raises
    cfg = with_updates(table3, v_0=v_0)
    assert (cfg.geometry.v_0 == cfg.geometry.r_d) == (v_0 == 80.0)
    loose = AnalyticEngine(cfg, rel_tol=1e-4)
    tight = AnalyticEngine(cfg, rel_tol=1e-7)
    cov = _cells(loose.coverage())[:7]
    rep = _cells(loose.report())
    want = _cells(tight.report())
    assert np.allclose(cov, want[:7], rtol=1e-3, atol=0.0)
    assert np.allclose(rep, want, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize("overrides", [
    {"B_T": 1e-6}, {"B_T": 1e6},
    {"m_L": 10, "m_N": 10, "k_a": 0.0},
    {"lambda_B": 0.0},
    {"v_0": 79.9},
    {"h_A": 1.41},
    {"N_A": 1, "delta_T": 0.0}, {"N_A": 1, "delta_T": 1.0},
    {"sigma_eps_T": math.radians(10.0), "sigma_eps_U": math.radians(10.0)},
], ids=["B_T=1e-6", "B_T=1e6", "m=10,k_a=0", "lambda_B=0", "v_0=79.9",
        "h_A=1.41", "N_A=1,delta_T=0", "N_A=1,delta_T=1", "sigma_eps=10"])
def test_rate_meets_rel_tol_against_tight(table3, overrides):
    # the rate's step is set a priori from rel_tol: at rel_tol 1e-4 and 1e-7
    # every conditional rate is within rel_tol of an engine at 1e-10
    cfg = with_updates(table3, **overrides)
    tight = AnalyticEngine(cfg, rel_tol=1e-10)
    assoc = tight.assoc_probabilities()
    events = [e for e in EVENTS if assoc.get(e) > DEGENERATE_EVENT_TOL]
    want = np.array([tight.conditional_rate(e) for e in events])
    for rel_tol in (1e-4, 1e-7):
        eng = AnalyticEngine(cfg, rel_tol=rel_tol)
        got = np.array([eng.conditional_rate(e) for e in events])
        assert np.all(np.abs(got - want) <= rel_tol * want), (rel_tol, got, want)


def test_rate_unchanged_by_a_finer_step(table3):
    # on Table 3 the trapezoid sum of the tight engine above has converged:
    # a step shorter by sqrt(2) moves no conditional rate by more than 1e-13
    base = AnalyticEngine(table3, rel_tol=1e-10)
    finer = AnalyticEngine(table3, rel_tol=1e-10)
    finer.rate_step = base.rate_step / math.sqrt(2.0)
    for event in EVENTS:
        assert finer.conditional_rate(event) == pytest.approx(
            base.conditional_rate(event), rel=1e-13, abs=0.0), event
