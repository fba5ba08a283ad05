"""Link budgets, blockage and fading draws of the radio link classes."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .antenna import mean_desired_gain
from .errors import DomainError
from .params import NetworkConfig, RadioParams

#: tolerated floating-point spill below the minimum link distance
DISTANCE_SPILL_TOL = 1e-9


class LinkClass(Enum):
    """Radio link classes; each selects a fading shape."""

    RF = "rf"
    THZ_LOS = "thz_los"
    THZ_NLOS = "thz_nlos"

    def nakagami_m(self, radio: RadioParams) -> int:
        # Rayleigh power fading is the m = 1 special case.
        return {
            LinkClass.RF: 1,
            LinkClass.THZ_LOS: radio.m_L,
            LinkClass.THZ_NLOS: radio.m_N,
        }[self]


#: link class of each class code, in association event order L, N, R
LINKS = (LinkClass.THZ_LOS, LinkClass.THZ_NLOS, LinkClass.RF)


class LinkTable(NamedTuple):
    """Per-class link budget; each field is a (3,) array indexed by class
    code (0 THz LOS, 1 THz NLOS, 2 RF, the order of ``LINKS``).  A class-c
    AP at distance d has average received power ``amp e^{-k_a d} d^-alpha``
    and average biased power ``bias`` times that."""

    amp: np.ndarray     # transmit power x free-space reference gain, P gamma
    k_a: np.ndarray     # molecular absorption, 1/m; 0 for RF
    alpha: np.ndarray   # path-loss exponent
    m: np.ndarray       # Nakagami shape of the fading power (int)
    bias: np.ndarray    # association bias, B_T E[g_des] for THz, 1 for RF
    noise: np.ndarray   # noise power sigma^2, W
    bw: np.ndarray      # bandwidth, Hz


def link_table(cfg: NetworkConfig) -> LinkTable:
    """The one place the per-class link budget is read from the config."""
    r = cfg.radio
    thz_bias = r.B_T * mean_desired_gain(cfg.antenna)
    return LinkTable(
        amp=np.array([r.P_T * r.gamma_T, r.P_T * r.gamma_T, r.P_R * r.gamma_R]),
        k_a=np.array([r.k_a, r.k_a, 0.0]),
        alpha=np.array([r.alpha_L, r.alpha_N, r.alpha_R]),
        m=np.array([link.nakagami_m(r) for link in LINKS]),
        bias=np.array([thz_bias, thz_bias, 1.0]),
        noise=np.array([r.sigma2_T, r.sigma2_T, r.sigma2_R]),
        bw=np.array([r.W_T, r.W_T, r.W_R]))


def kappa_los(r, beta: float, delta_h: float):
    """Probability that a THz AP at 3-D distance r has a clear LOS path.

    Exponential in the horizontal distance sqrt(r^2 - delta_h^2); equals 1
    directly overhead and for beta = 0 (no blockers).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < delta_h - DISTANCE_SPILL_TOL):
        raise DomainError(f"distance {np.min(r_arr)!r} below AP-UE height gap {delta_h!r}")
    out = np.atleast_1d(r_arr**2 - delta_h**2)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    out *= -beta
    np.exp(out, out=out)
    return float(out[0]) if np.ndim(r) == 0 else out


def kappa_nlos(r, beta: float, delta_h: float):
    return 1.0 - kappa_los(r, beta, delta_h)


def sample_fading(link: LinkClass, rng: np.random.Generator,
                  radio: RadioParams, size=None):
    """Unit-mean fading power draw(s).

    Gamma(shape=m, scale=1/m) via numpy's Generator (Marsaglia-Tsang for
    shape >= 1); seeded streams are reproducible for a pinned numpy version.
    """
    m = link.nakagami_m(radio)
    if m == 1:
        return rng.standard_exponential(size=size)
    return rng.gamma(shape=m, scale=1.0 / m, size=size)
