"""Shared fixtures: the baseline scenario, cached engines, config generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from hexnet import default_config, with_updates
from hexnet.analytic import AnalyticEngine

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


def valid_delta(rng, n_a: int) -> float:
    """A THz fraction that keeps delta_T * N_A integral."""
    return int(rng.integers(0, n_a + 1)) / n_a


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


#: link class codes, in association event order
LOS, NLOS, RF = 0, 1, 2


def path_gain(link, z, radio):
    """Oracle: distance-dependent channel gain of a link class (``LOS``,
    ``NLOS`` or ``RF``; no antenna gains, no fading).  RF: gamma_R
    z^-alpha_R.  THz: gamma_T e^{-k_a z} z^-alpha, with the exponent of the
    LOS/NLOS class."""
    if link == RF:
        return radio.gamma_R * z ** -radio.alpha_R
    alpha = radio.alpha_L if link == LOS else radio.alpha_N
    return radio.gamma_T * np.exp(-radio.k_a * z) * z ** -alpha


def f_z(z, sup, v_0, r_d):
    """Reference: the AP-UE distance density in z, as the paper writes it.
    ``2 z / r_d^2`` on [z_l, z_m]; on [z_m, z_p] times arccos(a) / pi, with
    a = (z^2 + v_0^2 - r_d^2 - z_l^2) / (2 v_0 sqrt(z^2 - z_l^2)); zero
    outside [z_l, z_p].  a is formed by cancellation and clamped to
    [-1, 1], so the value loses relative accuracy toward z_m and z_p."""
    z = np.asarray(z, dtype=float)
    out = np.where((z >= sup.z_l) & (z <= sup.z_p), 2.0 * z / r_d**2, 0.0)
    edge = (z >= sup.z_m) & (z <= sup.z_p)
    if v_0 > 0.0 and edge.any():
        ze = z[edge]
        horiz = np.sqrt(np.maximum(ze**2 - sup.z_l**2, 0.0))
        arg = (ze**2 + v_0**2 - r_d**2 - sup.z_l**2) / np.maximum(
            2.0 * v_0 * horiz, np.finfo(float).tiny)
        out[edge] *= np.arccos(np.clip(arg, -1.0, 1.0)) / math.pi
    return out
