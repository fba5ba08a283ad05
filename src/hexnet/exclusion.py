"""Exclusion regions implied by max biased-received-power association.

A class-c AP at distance d has average biased received power
``bias_c amp_c e^{-k_c d} d^-alpha_c``, with the per-class constants of
``propagation.link_table`` (k_c = 0 for RF).  If the serving AP belongs to
class X and sits at distance ``r``, any AP of class Y must sit beyond the
boundary ``E_XY(r)`` at which its biased power equals the server's.

Each boundary is piecewise: below a threshold ``h_XY`` the balance solution
falls under the minimum feasible distance ``z_l = h_A - h_U`` and the
boundary clamps to ``z_l`` (no exclusion).  Every balance is solved in log
power, so it holds where the linear powers underflow; a THz distance is the
Wright omega function of a log.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError, NotConverged
from .propagation import EVENTS, LinkTable

#: Newton steps ``wright_omega`` takes, from y0 = ln max(L, 1): five reach
#: rounding on all of [-700, 1e12]
NEWTON_STEPS = 5

#: letter of each class code in the e_xy / h_xy names
_CODES = "".join(EVENTS).lower()

_EPS = np.finfo(float).eps


def wright_omega(L):
    """The w > 0 with w + ln w = L, i.e. W0(e^L), for finite real L.

    Newton's method in y = ln w on the convex, increasing g(y) = e^y + y - L,
    from y0 = ln max(L, 1), where g(y0) >= 0: the iterates fall
    monotonically onto the root, and the error left after a step is below
    half the step's square.  Every entry takes exactly ``NEWTON_STEPS``
    steps, so w does not depend on the rest of its array; the last step's
    square within eps means w is exact to rounding.  Raises ``DomainError``
    for NaN or infinite L and ``NotConverged`` if an entry's last step is
    larger.
    """
    L = np.asarray(L, dtype=float)
    if not np.isfinite(L).all():
        raise DomainError("wright_omega argument is NaN or infinite")
    y = np.log(np.maximum(L, 1.0))
    for _ in range(NEWTON_STEPS):
        ey = np.exp(y)
        step = (ey + y - L) / (ey + 1.0)
        y = y - step
    if not (step * step <= _EPS).all():
        raise NotConverged(
            f"wright_omega still moving after {NEWTON_STEPS} Newton steps")
    return np.exp(y)


class ExclusionRegions:
    """All six boundaries for one scenario, with precomputed thresholds.

    ``links`` is the scenario's ``LinkTable``; every boundary comes from the
    one balance ``_balance``, which needs every class's log power to be
    finite (``AnalyticEngine`` rejects B_T <= 0).  Each class pair's
    constants are computed once, in ``_pairs``.  The threshold ``h_xy`` is
    the reciprocal balance evaluated at z_l, which makes each piecewise
    boundary continuous at its break by construction.
    """

    def __init__(self, z_l: float, links: LinkTable):
        self.z_l = z_l
        t = links
        pairs = list(itertools.permutations(range(3), 2))
        self._pairs = {}
        for x, y in pairs:
            a_y = t.alpha[y]
            const = (t.log_power[y] - t.log_power[x]) / a_y
            q = t.k_a[y] / a_y
            if q != 0.0:
                const += np.log(q)
            self._pairs[x, y] = (float(const), float(t.k_a[x] / a_y),
                                 float(t.alpha[x] / a_y), float(q))
        self._h = {}
        for x, y in pairs:
            h = self._h[x, y] = float(self._balance(y, x, z_l))
            setattr(self, f"h_{_CODES[x]}{_CODES[y]}", h)

    def _balance(self, x: int, y: int, r):
        """Distance E at which a class-y AP's biased power equals that of a
        class-x AP at distance r (class codes), with no clamping:

            bias_y amp_y e^{-k_y E} E^-alpha_y = bias_x amp_x e^{-k_x r} r^-alpha_x.

        With q = k_y / alpha_y this is E e^{q E} = root, where ln root is a
        sum of logs, so E = root at k_y = 0 and E = omega(ln(q root)) / q
        otherwise; the pair's constant already holds ln q.  A class-y THz
        boundary is finite wherever the powers underflow; a class-y RF one
        is +inf, without a warning, only where root passes the float range,
        beyond every AP.
        """
        const, k_x, a_x, q = self._pairs[x, y]
        log_root = const + k_x * r + a_x * np.log(r)
        if q == 0.0:
            with np.errstate(over="ignore"):
                return np.exp(log_root)
        return wright_omega(log_root) / q

    # -- public piecewise boundaries ------------------------------------------

    def _piecewise(self, x: int, y: int, r):
        # an array of r's shape; the balance is solved only where it is
        # kept; a NaN r is solved, so a THz boundary raises DomainError for it
        r_arr = np.asarray(r, dtype=float)
        solve = ~(r_arr < self._h[x, y])
        out = np.full(r_arr.shape, self.z_l)
        out[solve] = self._balance(x, y, r_arr[solve])
        return out

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
