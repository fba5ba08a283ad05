"""Exclusion regions implied by max biased-received-power association.

If the serving AP belongs to class X and sits at distance ``r``, any AP of
class Y must sit beyond the boundary ``E_XY(r)`` obtained by equating the two
average biased received powers:

    RF:        P_R gamma_R d^-alpha_R
    THz LOS:   B_T P_T gamma_T G_mean e^{-k_a d} d^-alpha_L
    THz NLOS:  B_T P_T gamma_T G_mean e^{-k_a d} d^-alpha_N

Each boundary is piecewise: below a threshold ``h_XY`` the balance solution
falls under the minimum feasible distance ``z_l = h_A - h_U`` and the
boundary clamps to ``z_l`` (no exclusion).  Solving the THz-side balances for
distance requires the principal branch of the Lambert W function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import RadioParams

INV_E = math.exp(-1.0)

#: arguments this far below -1/e are rejected rather than clamped
W_DOMAIN_TOL = 1e-12


def lambert_w0(x):
    """Principal branch of the Lambert W function (w e^w = x, w >= -1).

    Initial guess by region (branch-point series, log1p, asymptotic log-log),
    then Halley refinement.  Accepts scalars or arrays; defined for
    x >= -1/e.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr < -INV_E - W_DOMAIN_TOL):
        raise DomainError(f"lambert_w0 argument {np.min(arr)!r} below -1/e")
    xc = np.maximum(arr, -INV_E)

    w = np.empty_like(xc)
    near = xc < -0.25
    if np.any(near):
        p = np.sqrt(2.0 * (math.e * xc[near] + 1.0))
        w[near] = -1.0 + p * (1.0 - p * (1.0 / 3.0 - (11.0 / 72.0) * p))
    mid = ~near & (xc <= math.e)
    w[mid] = np.log1p(xc[mid])
    far = xc > math.e
    if np.any(far):
        l1 = np.log(xc[far])
        l2 = np.log(l1)
        w[far] = l1 - l2 + l2 / l1

    for _ in range(12):
        ew = np.exp(w)
        f = w * ew - xc
        wp1 = w + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            step = np.where(f == 0.0, 0.0, f / denom)
        step = np.where(np.isfinite(step), step, 0.0)
        w -= step
        if np.all(np.abs(step) <= 1e-16 * (1.0 + np.abs(w))):
            break
    w = np.maximum(w, -1.0)
    return float(w[0]) if scalar else w


class ExclusionRegions:
    """All six boundaries for one scenario, with precomputed thresholds.

    ``bias_ratio`` is B_T P_T gamma_T G_mean / (P_R gamma_R); every balance
    reduces to expressions in it, the absorption coefficient and the path-loss
    exponents, so it must be positive (``AnalyticEngine`` rejects B_T <= 0).
    Thresholds are the reciprocal boundaries evaluated at z_l, which makes
    each piecewise function continuous at its break by construction.
    """

    def __init__(self, z_l: float, radio: RadioParams, mean_gain: float):
        self.z_l = z_l
        self.k_a = radio.k_a
        self.a_l = radio.alpha_L
        self.a_n = radio.alpha_N
        self.a_r = radio.alpha_R
        self.bias_ratio = (radio.B_T * radio.P_T * radio.gamma_T * mean_gain
                           / (radio.P_R * radio.gamma_R))
        self.h_lr = float(self._bal_rl(z_l))
        self.h_ln = float(self._bal_nl(z_l))
        self.h_nr = float(self._bal_rn(z_l))
        self.h_nl = float(self._bal_ln(z_l))
        self.h_rl = float(self._bal_lr(z_l))
        self.h_rn = float(self._bal_nr(z_l))

    # -- smooth balance branches (no clamping) --------------------------------

    def _bal_lr(self, r):
        r = np.asarray(r, float)
        c = self.bias_ratio
        return (c ** (-1.0 / self.a_r) * np.exp((self.k_a / self.a_r) * r)
                * r ** (self.a_l / self.a_r))

    def _bal_nr(self, r):
        r = np.asarray(r, float)
        c = self.bias_ratio
        return (c ** (-1.0 / self.a_r) * np.exp((self.k_a / self.a_r) * r)
                * r ** (self.a_n / self.a_r))

    def _bal_ln(self, r):
        # NLOS distance with the same power as a LOS server at r:
        # e^{k E} E^{a_n} = e^{k r} r^{a_l}
        r = np.asarray(r, float)
        if self.k_a == 0.0:
            return r ** (self.a_l / self.a_n)
        q = self.k_a / self.a_n
        return lambert_w0(q * np.exp(q * r) * r ** (self.a_l / self.a_n)) / q

    def _bal_nl(self, r):
        r = np.asarray(r, float)
        if self.k_a == 0.0:
            return r ** (self.a_n / self.a_l)
        q = self.k_a / self.a_l
        return lambert_w0(q * np.exp(q * r) * r ** (self.a_n / self.a_l)) / q

    def _bal_rl(self, r):
        # LOS distance with the same power as an RF server at r:
        # e^{k E} E^{a_l} = C r^{a_r}
        r = np.asarray(r, float)
        c = self.bias_ratio
        if self.k_a == 0.0:
            return (c * r ** self.a_r) ** (1.0 / self.a_l)
        q = self.k_a / self.a_l
        return lambert_w0(q * c ** (1.0 / self.a_l) * r ** (self.a_r / self.a_l)) / q

    def _bal_rn(self, r):
        r = np.asarray(r, float)
        c = self.bias_ratio
        if self.k_a == 0.0:
            return (c * r ** self.a_r) ** (1.0 / self.a_n)
        q = self.k_a / self.a_n
        return lambert_w0(q * c ** (1.0 / self.a_n) * r ** (self.a_r / self.a_n)) / q

    # -- public piecewise boundaries ------------------------------------------

    def _piecewise(self, r, h, bal):
        r_arr = np.asarray(r, dtype=float)
        out = np.where(r_arr < h, self.z_l, bal(r_arr))
        return float(out) if np.ndim(r) == 0 else out

    def e_lr(self, r):
        """Nearest-RF boundary given a LOS THz server at r."""
        return self._piecewise(r, self.h_lr, self._bal_lr)

    def e_ln(self, r):
        """Nearest-NLOS boundary given a LOS THz server at r."""
        return self._piecewise(r, self.h_ln, self._bal_ln)

    def e_nr(self, r):
        """Nearest-RF boundary given a NLOS THz server at r."""
        return self._piecewise(r, self.h_nr, self._bal_nr)

    def e_nl(self, r):
        """Nearest-LOS boundary given a NLOS THz server at r."""
        return self._piecewise(r, self.h_nl, self._bal_nl)

    def e_rl(self, r):
        """Nearest-LOS boundary given an RF server at r."""
        return self._piecewise(r, self.h_rl, self._bal_rl)

    def e_rn(self, r):
        """Nearest-NLOS boundary given an RF server at r."""
        return self._piecewise(r, self.h_rn, self._bal_rn)
