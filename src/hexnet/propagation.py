"""Link budgets, blockage and fading draws of the radio link classes.

Owns the class axis: the link classes LOS THz, NLOS THz and RF are the
association events, in the one order ``EVENTS`` that ``LinkTable``'s rows
and ``TierMetrics``' fields follow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .antenna import mean_desired_gain
from .errors import DomainError
from .params import NetworkConfig

#: tolerated floating-point spill below the minimum link distance
DISTANCE_SPILL_TOL = 1e-9

#: the association events, one per link class, by class code
EVENTS = ("L", "N", "R")


class TierMetrics(NamedTuple):
    """One value per association event (LOS THz, NLOS THz, RF), in
    ``EVENTS`` order."""

    los: float
    nlos: float
    rf: float

    def get(self, event: str):
        return self[EVENTS.index(event)]


class LinkTable(NamedTuple):
    """Per-class link budget; each field is a (3,) array indexed by class
    code (0 THz LOS, 1 THz NLOS, 2 RF, the order of ``EVENTS``).  A class-c
    AP at distance d has average received power ``amp e^{-k_a d} d^-alpha``
    and average biased power ``e^log_power e^{-k_a d} d^-alpha``."""

    amp: np.ndarray     # transmit power x free-space reference gain, P gamma
    k_a: np.ndarray     # molecular absorption, 1/m; 0 for RF
    alpha: np.ndarray   # path-loss exponent
    m: np.ndarray       # Nakagami shape of the fading power (int); 1 for
                        # RF, whose Rayleigh fading is the m = 1 case
    log_power: np.ndarray  # ln(bias amp); bias B_T E[g_des] for THz, 1 for RF
    noise: np.ndarray   # noise power sigma^2, W
    bw: np.ndarray      # bandwidth, Hz


def link_table(cfg: NetworkConfig) -> LinkTable:
    """The one place the per-class link budget is read from the config."""
    r = cfg.radio
    amp = np.array([r.P_T * r.gamma_T, r.P_T * r.gamma_T, r.P_R * r.gamma_R])
    # a sum of logs stays finite where bias times amp would overflow
    with np.errstate(divide="ignore"):           # B_T = 0: ln 0 = -inf
        log_bias = np.log(r.B_T) + math.log(mean_desired_gain(cfg.antenna))
    return LinkTable(
        amp=amp,
        k_a=np.array([r.k_a, r.k_a, 0.0]),
        alpha=np.array([r.alpha_L, r.alpha_N, r.alpha_R]),
        m=np.array([r.m_L, r.m_N, 1]),
        log_power=np.log(amp) + np.array([log_bias, log_bias, 0.0]),
        noise=np.array([r.sigma2_T, r.sigma2_T, r.sigma2_R]),
        bw=np.array([r.W_T, r.W_T, r.W_R]))


def kappa_los(r, beta: float, delta_h: float):
    """Probability that a THz AP at 3-D distance r has a clear LOS path.

    Exponential in the horizontal distance sqrt(r^2 - delta_h^2); equals 1
    directly overhead and for beta = 0 (no blockers).  An array of r's
    shape.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < delta_h - DISTANCE_SPILL_TOL):
        raise DomainError(f"distance {np.min(r_arr)!r} below AP-UE height gap {delta_h!r}")
    out = np.asarray(r_arr**2 - delta_h**2)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    out *= -beta
    np.exp(out, out=out)
    return out


def kappa_nlos(r, beta: float, delta_h: float):
    return 1.0 - kappa_los(r, beta, delta_h)


def sample_fading(m: int, rng: np.random.Generator, size=None):
    """Unit-mean fading power draws of Nakagami shape m (``LinkTable.m``).

    Gamma(shape=m, scale=1/m) via numpy's Generator (Marsaglia-Tsang for
    shape >= 1), and the Rayleigh case m = 1 as a standard exponential;
    seeded streams are reproducible for a pinned numpy version.
    """
    if m == 1:
        return rng.standard_exponential(size=size)
    return rng.gamma(shape=m, scale=1.0 / m, size=size)
