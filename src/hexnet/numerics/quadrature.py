"""Adaptive Gauss-Kronrod quadrature over piecewise-smooth integrands.

Integrands must be vectorized: ``f`` receives a 1-D array of abscissae and
returns an array whose first axis matches it.  Trailing axes are allowed, in
which case all components are integrated on shared panels and the error is
controlled in the max norm (useful for jet coefficients and parameter grids).

Panels are processed in batches (one integrand call per refinement sweep), so
the per-call Python overhead stays small even for deeply refined integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import (
    DomainError,
    MaxDepthExceeded,
    NonFiniteEstimate,
    ToleranceBelowFloor,
)

# 15-point Kronrod extension of 7-point Gauss-Legendre (abscissae/weights on
# [-1, 1]; the Gauss nodes are the odd-indexed Kronrod ones).
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_ERR_FLOOR = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Quadrature:
    """Tolerances and panel policy of one integration.

    Every panel's error estimate is at least ``_ERR_FLOOR`` times its
    integral of |f|, so wherever ``abs_tol`` does not dominate, a ``rel_tol``
    below that floor is out of reach and refinement would double the panels
    on every sweep until memory runs out.  Such a tolerance raises
    ``ToleranceBelowFloor`` here, before any integrand is evaluated.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_depth: int = 50
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.rel_tol >= _ERR_FLOOR:
            raise ToleranceBelowFloor(
                f"rel_tol {self.rel_tol!r} is below the quadrature error "
                f"floor {_ERR_FLOOR!r}")


class QuadResult(NamedTuple):
    value: object  # float, or ndarray for vector-valued integrands
    error: float


def _maxabs(values, tail_ndim):
    """Max-norm over trailing axes; values shape (m, *tail) -> (m,)."""
    if tail_ndim == 0:
        return np.abs(values)
    return np.abs(values).reshape(values.shape[0], -1).max(axis=1)


def _eval_panels(f, a, b):
    """Kronrod/Gauss evaluation of panels [a_i, b_i]; returns (values, errors).
    Raises NonFiniteEstimate on the first panel whose error is not finite."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * NODES
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float)
    tail = fx.shape[1:]
    fx = fx.reshape(a.size, 15, *tail)
    kron = np.tensordot(fx, KRONROD_WEIGHTS, axes=([1], [0]))
    gauss = np.tensordot(fx, GAUSS_WEIGHTS, axes=([1], [0]))
    resabs = np.tensordot(np.abs(fx), KRONROD_WEIGHTS, axes=([1], [0]))
    half_r = half.reshape((a.size,) + (1,) * len(tail))
    values = kron * half_r
    err = _maxabs((kron - gauss) * half_r, len(tail))
    err = np.maximum(err, _ERR_FLOOR * _maxabs(resabs * half_r, len(tail)))
    bad = ~np.isfinite(err)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteEstimate(float(a[i]), float(b[i]), float(err[i]))
    return values, err


def _initial_panels(f, a, b, breakpoints):
    """Panels between the breakpoints inside (a, b), evaluated, at depth 0:
    (starts, ends, values, errors, depths)."""
    pts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = np.array([a, *pts, b], dtype=float)
    pa, pb = edges[:-1], edges[1:]
    return (pa, pb, *_eval_panels(f, pa, pb), np.zeros(pa.size, dtype=int))


def _bisect(f, split, pa, pb, vals, errs, depths):
    """Halve the panels marked in ``split``: the kept panels, then the new
    halves, with their values, errors and depths."""
    sa, sb = pa[split], pb[split]
    smid = 0.5 * (sa + sb)
    ca = np.concatenate([sa, smid])
    cb = np.concatenate([smid, sb])
    cvals, cerrs = _eval_panels(f, ca, cb)
    keep = ~split
    return (np.concatenate([pa[keep], ca]), np.concatenate([pb[keep], cb]),
            np.concatenate([vals[keep], cvals], axis=0),
            np.concatenate([errs[keep], cerrs]),
            np.concatenate([depths[keep], depths[split] + 1, depths[split] + 1]))


def integrate(f, a: float, b: float, q: Quadrature | None = None) -> QuadResult:
    """Adaptive integral of a vectorized integrand over [a, b].

    Splits every panel whose error exceeds its length-proportional share of
    the tolerance until the summed error estimate meets
    ``max(abs_tol, rel_tol * |value|)``.  Raises MaxDepthExceeded (reporting
    the worst panel) if a panel would have to be split beyond ``max_depth``
    halvings, and NonFiniteEstimate if a panel's error estimate is not
    finite.
    """
    if q is None:
        q = Quadrature()
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return QuadResult(0.0, 0.0)

    pa, pb, vals, errs, depths = _initial_panels(f, a, b, q.breakpoints)
    tail_ndim = vals.ndim - 1
    span = b - a

    while True:
        total = vals.sum(axis=0)
        err_total = float(errs.sum())
        scale = float(np.max(np.abs(total))) if tail_ndim else abs(float(total))
        tol = max(q.abs_tol, q.rel_tol * scale)
        if err_total <= tol:
            value = total if tail_ndim else float(total)
            return QuadResult(value, err_total)

        budget = tol * (pb - pa) / span
        split = errs > budget
        if not split.any():
            split = errs >= errs.max()
        if depths[split].max() >= q.max_depth:
            worst = int(np.argmax(np.where(split, errs, -np.inf)))
            raise MaxDepthExceeded(float(pa[worst]), float(pb[worst]),
                                   float(errs[worst]))

        pa, pb, vals, errs, depths = _bisect(f, split, pa, pb, vals, errs,
                                             depths)


def integrate_semiinfinite(f, q: Quadrature | None = None) -> QuadResult:
    """Weighted tail integral: int_0^inf f(t) / (t + 1) dt.

    Substitutes t = u / (1 - u) so the weight absorbs one power of the
    Jacobian and the problem becomes a finite integral of f(t(u)) / (1 - u)
    over [0, 1).  Breakpoints are interpreted on the t axis.  A breakpoint
    whose u is so close to 1 that the panel [u, 1] has a Kronrod node at
    u = 1, where t is infinite, raises DomainError.
    """
    if q is None:
        q = Quadrature()
    mapped = tuple(t / (1.0 + t) for t in q.breakpoints if t > 0)
    u = float(max(mapped, default=0.0))
    # the last node of the panel [u, 1], as _eval_panels computes it
    if 0.5 * (u + 1.0) + 0.5 * (1.0 - u) * NODES[-1] >= 1.0:
        raise DomainError(f"t breakpoint {float(max(q.breakpoints))!r} maps "
                          f"to u = {u!r}: the panel [u, 1] has a node at u = 1")
    qq = replace(q, breakpoints=mapped)
    return integrate(lambda u: _weighted(f, u), 0.0, 1.0, qq)


def _weighted(f, u):
    t = u / (1.0 - u)
    fx = np.asarray(f(t), dtype=float)
    jac = 1.0 / (1.0 - u)
    return fx * jac.reshape((u.size,) + (1,) * (fx.ndim - 1))


class TailIntegral:
    """Cached suffix antiderivative T(x) = int_x^b f(y) dy of a scalar f.

    Builds one adaptive panelization of [a, b] up front (each panel refined to
    its length-proportional error share), then answers arbitrary lower limits
    with a suffix sum plus a single fresh Kronrod rule on the partial panel.
    Vectorized over x; each lower limit's rule is summed on its own, so a
    value does not depend on the other entries of its array.  Raises
    MaxDepthExceeded (reporting the worst panel) if the tolerance cannot be
    met: a panel over its error share would have to be split below a width
    of 64 ulp or beyond ``max_depth`` halvings.  A NaN lower limit raises
    DomainError.
    """

    def __init__(self, f, a: float, b: float, q: Quadrature | None = None):
        if q is None:
            q = Quadrature()
        self._f = f
        self.a = float(a)
        self.b = float(b)
        if not b > a:
            raise ValueError("TailIntegral requires b > a")
        pa, pb, vals, errs, depths = _initial_panels(f, a, b, q.breakpoints)
        span = b - a
        min_width = 64.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
        while True:
            total = float(vals.sum())
            tol = max(q.abs_tol, q.rel_tol * abs(total))
            if errs.sum() <= tol:
                break
            split = (errs > tol * (pb - pa) / span) & (pb - pa > min_width)
            if not split.any() or depths[split].max() >= q.max_depth:
                # the tolerance is out of reach: every panel over its share
                # is at min_width, or one would be split beyond max_depth
                pool = split if split.any() else np.ones_like(split)
                worst = int(np.argmax(np.where(pool, errs, -np.inf)))
                raise MaxDepthExceeded(float(pa[worst]), float(pb[worst]),
                                       float(errs[worst]))
            pa, pb, vals, errs, depths = _bisect(f, split, pa, pb, vals, errs,
                                                 depths)

        order = np.argsort(pa)
        self._edges = np.append(pa[order], b)
        panel_vals = vals[order]
        suffix = np.zeros(panel_vals.size + 1)
        suffix[:-1] = np.cumsum(panel_vals[::-1])[::-1]
        self._suffix = suffix
        self.total = float(suffix[0])
        self.error = float(errs.sum())

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        if np.isnan(x_arr).any():
            raise DomainError("TailIntegral lower limit is NaN")
        out = np.empty_like(x_arr)
        out[x_arr <= self.a] = self.total
        out[x_arr >= self.b] = 0.0
        mid = (x_arr > self.a) & (x_arr < self.b)
        if np.any(mid):
            xm = x_arr[mid]
            idx = np.searchsorted(self._edges, xm, side="right") - 1
            right = self._edges[idx + 1]
            m = 0.5 * (xm + right)
            h = 0.5 * (right - xm)
            nodes = m[:, None] + h[:, None] * NODES
            fx = np.asarray(self._f(nodes.reshape(-1)), dtype=float)
            fx = fx.reshape(xm.size, 15)
            # not a matrix product: BLAS may sum a row in an order that
            # depends on the row count
            partial = (fx * KRONROD_WEIGHTS).sum(axis=1) * h
            out[mid] = partial + self._suffix[idx + 1]
        return float(out[0]) if scalar else out
