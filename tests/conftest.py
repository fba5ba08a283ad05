"""Shared fixtures: the baseline scenario, cached engines, config generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from hexnet import default_config, with_updates
from hexnet.analytic import AnalyticEngine
from hexnet.propagation import LinkClass

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table3():
    return default_config()


@pytest.fixture(scope="session")
def engine(table3):
    eng = AnalyticEngine(table3)
    eng.assoc_probabilities()
    return eng


def valid_delta(rng, n_a: int, around: float | None = None) -> float:
    """A THz fraction that keeps delta_T * N_A integral."""
    if around is None:
        k = int(rng.integers(0, n_a + 1))
    else:
        k = int(round(around * n_a * (1.0 + rng.uniform(-0.2, 0.2))))
        k = min(max(k, 0), n_a)
    return k / n_a


def perturbed_config(base, rng) -> "NetworkConfig":
    """+-20% jitter on continuous parameters, N_A in {10, 20, 30}.

    Discrete parameters (Nakagami shapes) and parameters whose baseline is an
    exact structural zero (v_0, steering error) are kept.
    """
    def j(x):
        return x * (1.0 + rng.uniform(-0.2, 0.2))

    g, r, b, a = base.geometry, base.radio, base.blockage, base.antenna
    n_a = int(rng.choice([10, 20, 30]))
    g_t_min = j(a.g_T_min)
    g_u_min = j(a.g_U_min)
    return type(base)(
        geometry=type(g)(
            r_d=j(g.r_d), h_A=j(g.h_A), h_U=min(j(g.h_U), j(g.h_A) - 0.5),
            v_0=g.v_0, N_A=n_a, delta_T=valid_delta(rng, n_a, around=g.delta_T),
        ),
        radio=type(r)(
            P_T=j(r.P_T), P_R=j(r.P_R), f_T=j(r.f_T), f_R=j(r.f_R),
            W_T=j(r.W_T), W_R=j(r.W_R), k_a=j(r.k_a),
            alpha_R=max(2.0, j(r.alpha_R)), alpha_L=max(2.0, j(r.alpha_L)),
            alpha_N=max(2.0, j(r.alpha_N)), m_L=r.m_L, m_N=r.m_N,
            sigma2_T=j(r.sigma2_T), sigma2_R=j(r.sigma2_R),
            B_T=j(r.B_T), theta=j(r.theta),
        ),
        blockage=type(b)(lambda_B=j(b.lambda_B), r_B=j(b.r_B), h_B=j(b.h_B)),
        antenna=type(a)(
            g_T_max=max(j(a.g_T_max), g_t_min), g_T_min=g_t_min,
            g_U_max=max(j(a.g_U_max), g_u_min), g_U_min=g_u_min,
            phi_T=min(j(a.phi_T), 6.2), phi_U=min(j(a.phi_U), 6.2),
            sigma_eps_T=a.sigma_eps_T, sigma_eps_U=a.sigma_eps_U,
        ),
    )


def random_config(base, rng) -> "NetworkConfig":
    """A broadly randomized valid scenario (for normalization sweeps)."""
    n_a = int(rng.integers(4, 31))
    r_d = rng.uniform(20.0, 120.0)
    h_u = rng.uniform(0.5, 2.0)
    h_a = h_u + rng.uniform(0.8, 4.0)
    sig = rng.uniform(0.0, math.radians(30.0))
    cfg = with_updates(
        base,
        r_d=r_d, h_A=h_a, h_U=h_u, v_0=rng.uniform(0.0, r_d),
        N_A=n_a, delta_T=valid_delta(rng, n_a),
        k_a=rng.uniform(0.0, 0.15),
        alpha_L=rng.uniform(2.0, 3.0), alpha_N=rng.uniform(2.5, 5.0),
        alpha_R=rng.uniform(2.0, 4.0),
        m_L=int(rng.integers(1, 4)), m_N=int(rng.integers(1, 3)),
        B_T=float(10.0 ** rng.uniform(-2, 2)),
        theta=float(10.0 ** rng.uniform(-1, 1)),
        lambda_B=rng.uniform(0.0, 0.6),
        sigma_eps_T=sig, sigma_eps_U=sig,
        phi_T=rng.uniform(math.radians(5), math.radians(60)),
        phi_U=rng.uniform(math.radians(5), math.radians(60)),
    )
    return cfg


def path_gain(link, z, radio):
    """Oracle: distance-dependent channel gain of a link class (no antenna
    gains, no fading).  RF: gamma_R z^-alpha_R.  THz: gamma_T e^{-k_a z}
    z^-alpha, with the exponent of the LOS/NLOS class."""
    if link is LinkClass.RF:
        return radio.gamma_R * z ** -radio.alpha_R
    alpha = radio.alpha_L if link is LinkClass.THZ_LOS else radio.alpha_N
    return radio.gamma_T * np.exp(-radio.k_a * z) * z ** -alpha


def chi2_pvalue(samples, bin_edges, bin_probs):
    """Pearson chi-square p-value with small-expectation bins merged."""
    from scipy.stats import chi2

    counts, _ = np.histogram(samples, bins=bin_edges)
    n = samples.size
    expected = np.asarray(bin_probs) * n
    # merge adjacent bins until every expected count is >= 5
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0 and merged_e:
        merged_c[-1] += acc_c
        merged_e[-1] += acc_e
    merged_c = np.asarray(merged_c)
    merged_e = np.asarray(merged_e)
    # renormalize the tiny probability defect so expectations sum to n
    merged_e *= merged_c.sum() / merged_e.sum()
    stat = float(((merged_c - merged_e) ** 2 / merged_e).sum())
    dof = merged_c.size - 1
    return float(chi2.sf(stat, dof))
