"""Blockage probabilities and fading draws of the radio link classes."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError
from .params import RadioParams

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


def kappa_los(r, beta: float, delta_h: float):
    """Probability that a THz AP at 3-D distance r has a clear LOS path.

    Exponential in the horizontal distance sqrt(r^2 - delta_h^2); equals 1
    directly overhead and for beta = 0 (no blockers).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < delta_h - DISTANCE_SPILL_TOL):
        raise DomainError(f"distance {np.min(r_arr)!r} below AP-UE height gap {delta_h!r}")
    horiz = np.sqrt(np.maximum(r_arr**2 - delta_h**2, 0.0))
    out = np.exp(-beta * horiz)
    return float(out) if np.ndim(r) == 0 else out


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
