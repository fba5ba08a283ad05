"""Exclusion regions implied by max biased-received-power association.

A class-c AP at distance d has average biased received power
``bias_c amp_c e^{-k_c d} d^-alpha_c``, with the per-class constants of
``propagation.link_table`` (k_c = 0 for RF).  If the serving AP belongs to
class X and sits at distance ``r``, any AP of class Y must sit beyond the
boundary ``E_XY(r)`` at which its biased power equals the server's.

Each boundary is piecewise: below a threshold ``h_XY`` the balance solution
falls under the minimum feasible distance ``z_l = h_A - h_U`` and the
boundary clamps to ``z_l`` (no exclusion).  Solving a balance for a THz
distance requires the principal branch of the Lambert W function.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, NotConverged
from .propagation import LinkTable

INV_E = math.exp(-1.0)

#: arguments this far below -1/e are rejected rather than clamped
W_DOMAIN_TOL = 1e-12

#: Halley steps before ``lambert_w0`` checks its residual
HALLEY_STEPS = 12

#: residual |w e^w - x| accepted after the last Halley step, per unit of
#: |x| (1 + |w|); at the solution the rounding of w e^w stays below 2 eps
HALLEY_RESID_TOL = 8.0 * np.finfo(float).eps

#: letter of each class code in the e_xy / h_xy names
_CODES = "lnr"


def lambert_w0(x):
    """Principal branch of the Lambert W function (w e^w = x, w >= -1).

    Initial guess by region (branch-point series, log1p, asymptotic log-log),
    then Halley refinement of each entry until its step is below 1e-16
    relative; an entry's value does not depend on the rest of its array.
    Steps can stall at rounding noise near the branch point, where W is
    ill-conditioned, so an entry whose test is unmet after ``HALLEY_STEPS``
    steps must have its residual within ``HALLEY_RESID_TOL``, else
    ``NotConverged``.
    Accepts scalars or arrays; defined for x >= -1/e, with W(inf) = inf.
    Raises ``DomainError`` for NaN or x below -1/e.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if not np.all(arr >= -INV_E - W_DOMAIN_TOL):
        raise DomainError(f"lambert_w0 argument {np.min(arr)!r} is NaN or below -1/e")
    xc = np.maximum(arr, -INV_E)

    w = np.full_like(xc, np.inf)
    near = xc < -0.25
    if np.any(near):
        p = np.sqrt(2.0 * (math.e * xc[near] + 1.0))
        w[near] = -1.0 + p * (1.0 - p * (1.0 / 3.0 - (11.0 / 72.0) * p))
    mid = ~near & (xc <= math.e)
    w[mid] = np.log1p(xc[mid])
    far = (xc > math.e) & np.isfinite(xc)
    if np.any(far):
        l1 = np.log(xc[far])
        l2 = np.log(l1)
        w[far] = l1 - l2 + l2 / l1

    # W(inf) = inf is a fixed point: its Halley step is NaN and zeroed.  An
    # entry stops at its first step within the test, so its value does not
    # depend on how long the rest of its array keeps iterating.
    active = np.ones(xc.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(HALLEY_STEPS):
            ew = np.exp(w)
            f = w * ew - xc
            wp1 = w + 1.0
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            step = np.where(active & (f != 0.0), f / denom, 0.0)
            step = np.where(np.isfinite(step), step, 0.0)
            w -= step
            active &= ~(np.abs(step) <= 1e-16 * (1.0 + np.abs(w)))
            if not active.any():
                break
        else:
            resid = np.abs(w * np.exp(w) - xc)
            bad = active & np.isfinite(xc) & ~(
                resid <= HALLEY_RESID_TOL * np.abs(xc) * (1.0 + np.abs(w)))
            if bad.any():
                raise NotConverged(f"lambert_w0 residual {resid[bad].max()!r} "
                                   f"after {HALLEY_STEPS} Halley steps")
    w = np.maximum(w, -1.0)
    return float(w[0]) if scalar else w


class ExclusionRegions:
    """All six boundaries for one scenario, with precomputed thresholds.

    ``links`` is the scenario's ``LinkTable``; every boundary comes from the
    one balance ``_balance``, which needs every class's bias times amplitude
    to be positive (``AnalyticEngine`` rejects B_T <= 0).  The threshold
    ``h_xy`` is the reciprocal balance evaluated at z_l, which makes each
    piecewise boundary continuous at its break by construction.
    """

    def __init__(self, z_l: float, links: LinkTable):
        self.z_l = z_l
        self.links = links
        for x, y in itertools.permutations(range(3), 2):
            setattr(self, f"h_{_CODES[x]}{_CODES[y]}",
                    float(self._balance(y, x, z_l)))

    def _balance(self, x: int, y: int, r):
        """Distance E at which a class-y AP's biased power equals that of a
        class-x AP at distance r (class codes), with no clamping:

            bias_y amp_y e^{-k_y E} E^-alpha_y = bias_x amp_x e^{-k_x r} r^-alpha_x.

        With q = k_y / alpha_y this is E e^{q E} = root, so E = root at
        k_y = 0 and E = W(q root) / q otherwise.  E is +inf, without a
        warning, where e^{k_x r / alpha_y} nears the float range (k_x r /
        alpha_y above about 700): for a class-y RF the boundary lies beyond
        every AP, and for a class-y THz both THz powers underflow to zero.
        """
        t = self.links
        a_y = t.alpha[y]
        with np.errstate(over="ignore"):
            root = ((t.bias[y] * t.amp[y] / (t.bias[x] * t.amp[x])) ** (1.0 / a_y)
                    * np.exp(t.k_a[x] / a_y * r) * r ** (t.alpha[x] / a_y))
            if t.k_a[y] == 0.0:
                return root
            q = t.k_a[y] / a_y
            return lambert_w0(q * root) / q

    # -- public piecewise boundaries ------------------------------------------

    def _piecewise(self, x: int, y: int, r):
        h = getattr(self, f"h_{_CODES[x]}{_CODES[y]}")
        r_arr = np.asarray(r, dtype=float)
        out = np.where(r_arr < h, self.z_l, self._balance(x, y, r_arr))
        return float(out) if np.ndim(r) == 0 else out

    def e_lr(self, r):
        """Nearest-RF boundary given a LOS THz server at r."""
        return self._piecewise(0, 2, r)

    def e_ln(self, r):
        """Nearest-NLOS boundary given a LOS THz server at r."""
        return self._piecewise(0, 1, r)

    def e_nr(self, r):
        """Nearest-RF boundary given a NLOS THz server at r."""
        return self._piecewise(1, 2, r)

    def e_nl(self, r):
        """Nearest-LOS boundary given a NLOS THz server at r."""
        return self._piecewise(1, 0, r)

    def e_rl(self, r):
        """Nearest-LOS boundary given an RF server at r."""
        return self._piecewise(2, 0, r)

    def e_rn(self, r):
        """Nearest-NLOS boundary given an RF server at r."""
        return self._piecewise(2, 1, r)
