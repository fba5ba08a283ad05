"""Sectored antenna gains and the two 4-atom gain PMFs of a THz link.

A THz link multiplies one AP-side and one UE-side sectored gain.  On the
desired link the beams are steered with a half-normal pointing error, so the
main lobe is hit with probability erf(phi/2 / (sqrt(2) sigma)).  Interfering
links point uniformly, so the main lobe is hit with probability phi / (2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import AntennaParams


@dataclass(frozen=True)
class GainPmf:
    """Four (gain, probability) atoms of a two-sided sectored link gain."""

    gains: tuple[float, float, float, float]
    probs: tuple[float, float, float, float]

    def __post_init__(self):
        if any(p < 0 for p in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    @property
    def mean(self) -> float:
        return float(sum(g * p for g, p in zip(self.gains, self.probs)))


def half_normal_cdf(x: float, sigma: float) -> float:
    """P[|eps| <= x] for a zero-mean Gaussian pointing error of std-dev sigma.

    The sigma = 0 limit is a point mass at zero error, so the CDF is 1 for
    every x >= 0 (including x = 0).
    """
    if x < 0 or sigma < 0:
        raise ValueError("half_normal_cdf requires x >= 0 and sigma >= 0")
    if sigma == 0.0:
        return 1.0
    return math.erf(x / (math.sqrt(2.0) * sigma))


def _gain_atoms(ant: AntennaParams):
    return (
        ant.g_T_max * ant.g_U_max,
        ant.g_T_max * ant.g_U_min,
        ant.g_T_min * ant.g_U_max,
        ant.g_T_min * ant.g_U_min,
    )


def _two_sided(p_t: float, p_u: float):
    return (p_t * p_u, p_t * (1 - p_u), (1 - p_t) * p_u, (1 - p_t) * (1 - p_u))


def desired_gain_pmf(ant: AntennaParams) -> GainPmf:
    """Gain PMF of the steered desired link under beam-steering errors."""
    f_t = half_normal_cdf(ant.phi_T / 2.0, ant.sigma_eps_T)
    f_u = half_normal_cdf(ant.phi_U / 2.0, ant.sigma_eps_U)
    return GainPmf(_gain_atoms(ant), _two_sided(f_t, f_u))


def interferer_gain_pmf(ant: AntennaParams) -> GainPmf:
    """Gain PMF of an interfering link with uniformly distributed steering."""
    v_t = ant.phi_T / (2.0 * math.pi)
    v_u = ant.phi_U / (2.0 * math.pi)
    return GainPmf(_gain_atoms(ant), _two_sided(v_t, v_u))


def mean_desired_gain(ant: AntennaParams) -> float:
    """Expected desired-link gain; the association rule's long-term metric."""
    return desired_gain_pmf(ant).mean


def sample_gain(pmf: GainPmf, rng: np.random.Generator, out, idx):
    """Categorical draws from a gain PMF via inverse-CDF, one uniform each,
    into the float64 array ``out``, which is returned: u takes atom
    #{j < 3 : u >= cum_j} of the cumulative probabilities.  ``idx``, an intp
    array of out's shape, is overwritten."""
    cum = np.cumsum(pmf.probs)
    u = rng.random(out=out)
    np.greater_equal(u, cum[0], out=idx)
    idx += u >= cum[1]
    idx += u >= cum[2]
    return np.asarray(pmf.gains).take(idx, out=out, mode="clip")
