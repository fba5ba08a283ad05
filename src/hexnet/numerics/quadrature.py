"""Adaptive Gauss-Kronrod quadrature over piecewise-smooth integrands.

Integrands must be vectorized: ``f`` receives a 1-D array of abscissae and
returns an array whose first axis matches it.  Trailing axes are allowed, in
which case all components are integrated on shared panels (useful for jet
coefficients and parameter grids).

``integrate`` and ``TailIntegral`` share one refinement loop, ``_refine``,
whose docstring states the stopping rule; they differ only in the norm their
tolerance is taken in.  Panels are processed in batches (one integrand call
per refinement sweep), so the per-call Python overhead stays small even for
deeply refined integrals.
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
#: narrowest panel split, relative to max(|a|, |b|, 1): 64 ulp
_MIN_WIDTH = 64.0 * np.finfo(float).eps


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
    breakpoints: tuple  # interior edges of the final panels, ascending


def _maxabs(values):
    """Max-norm over trailing axes; values shape (m, *tail) -> (m, 1)."""
    return np.abs(values).reshape(values.shape[0], -1).max(axis=1, keepdims=True)


def _colabs(values):
    """Absolute value per component; values shape (m, *tail) -> (m, C)."""
    return np.abs(values).reshape(values.shape[0], -1)


def _eval_panels(f, a, b, norm):
    """Kronrod/Gauss evaluation of panels [a_i, b_i]; returns (values, errors),
    the errors reduced over the trailing axes by ``norm`` to (m, k).  Raises
    NonFiniteEstimate on the first panel whose error is not finite."""
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
    err = norm((kron - gauss) * half_r)
    err = np.maximum(err, _ERR_FLOOR * norm(resabs * half_r))
    bad = ~np.isfinite(err).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteEstimate(float(a[i]), float(b[i]), float(np.max(err[i])))
    return values, err


def _refine(f, a, b, q, norm):
    """Adaptive Gauss-Kronrod refinement of [a, b], the one loop behind
    ``integrate`` and ``TailIntegral``.

    Starts on the panels between ``q.breakpoints`` and halves panels, all of
    a sweep in one integrand call, until the summed error estimate meets
    ``max(abs_tol, rel_tol * norm(total))``: componentwise for
    ``norm=_colabs``, in the max norm for ``_maxabs``.  Each sweep splits
    every panel over its length-proportional share of that tolerance; if
    rounding leaves the sum over it with no panel over its share, the worst
    panel.  A panel narrower than 64 ulp of ``max(|a|, |b|, 1)``, where the
    Kronrod nodes round onto its ends, or ``max_depth`` halvings deep is
    never split: MaxDepthExceeded names the worst such panel that would have
    to be.  NonFiniteEstimate names a panel whose error is not finite.

    Returns the final panels' starts, their values, the total and the summed
    error estimate.
    """
    pts = sorted({float(p) for p in q.breakpoints if a < p < b})
    edges = np.array([a, *pts, b], dtype=float)
    pa, pb = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, pa, pb, norm)
    depths = np.zeros(pa.size, dtype=int)
    span = b - a
    min_width = _MIN_WIDTH * max(abs(a), abs(b), 1.0)
    while True:
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        tol = np.maximum(q.abs_tol, q.rel_tol * norm(total[None])[0])
        if (err <= tol).all():
            return pa, vals, total, err

        split = (errs > tol * ((pb - pa) / span)[:, None]).any(axis=1)
        worst = errs.max(axis=1)
        if not split.any():
            split = worst >= worst.max()
        stuck = split & ((pb - pa <= min_width) | (depths >= q.max_depth))
        if stuck.any():
            i = int(np.argmax(np.where(stuck, worst, -np.inf)))
            raise MaxDepthExceeded(float(pa[i]), float(pb[i]), float(worst[i]))

        sa, sb = pa[split], pb[split]
        smid = 0.5 * (sa + sb)
        ca = np.concatenate([sa, smid])
        cb = np.concatenate([smid, sb])
        cvals, cerrs = _eval_panels(f, ca, cb, norm)
        keep = ~split
        pa = np.concatenate([pa[keep], ca])
        pb = np.concatenate([pb[keep], cb])
        vals = np.concatenate([vals[keep], cvals], axis=0)
        errs = np.concatenate([errs[keep], cerrs], axis=0)
        depths = np.concatenate([depths[keep], depths[split] + 1,
                                 depths[split] + 1])


def integrate(f, a: float, b: float, q: Quadrature | None = None) -> QuadResult:
    """Adaptive integral of a vectorized integrand over [a, b].

    Refines by ``_refine``'s stopping rule until the summed error estimate
    meets ``max(abs_tol, rel_tol * |value|)``, |value| in the max norm over
    trailing axes; raises as ``_refine`` does.

    The result also carries the interior edges of the final panels, where
    the integrand needed resolution: as the ``breakpoints`` of a later
    integral over the same range whose integrand shares a factor with this
    one, they start it on panels that factor has already refined.
    """
    if q is None:
        q = Quadrature()
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return QuadResult(0.0, 0.0, ())
    pa, _, total, err = _refine(f, a, b, q, _maxabs)
    value = total if total.ndim else float(total)
    return QuadResult(value, float(err[0]), tuple(np.sort(pa)[1:].tolist()))


def integrate_semiinfinite(f, q: Quadrature | None = None) -> QuadResult:
    """Weighted tail integral: int_0^inf f(t) / (t + 1) dt.

    Substitutes t = u / (1 - u) so the weight absorbs one power of the
    Jacobian and the problem becomes a finite integral of f(t(u)) / (1 - u)
    over [0, 1).  Breakpoints are interpreted on the t axis.  Where t is
    infinite, at u = 1, DomainError names the largest t breakpoint: raised
    for a breakpoint that maps to u = 1, and for a Kronrod node at u = 1,
    before f is called there.  A panel from a breakpoint close to 1 has such
    a node, and so may the halves of a panel refined toward 1.  The final
    panels' edges in the result are in u.
    """
    if q is None:
        q = Quadrature()
    mapped = tuple(t / (1.0 + t) for t in q.breakpoints if t > 0)
    t_max = float(max(q.breakpoints, default=0.0))
    if max(mapped, default=0.0) >= 1.0:
        raise DomainError(f"t breakpoint {t_max!r} maps to u = 1")

    def weighted(u):
        if u.max() >= 1.0:
            raise DomainError(f"a node at u = 1, where t is infinite; the "
                              f"largest t breakpoint is {t_max!r}")
        t = u / (1.0 - u)
        fx = np.asarray(f(t), dtype=float)
        jac = 1.0 / (1.0 - u)
        return fx * jac.reshape((u.size,) + (1,) * (fx.ndim - 1))

    return integrate(weighted, 0.0, 1.0, replace(q, breakpoints=mapped))


class TailIntegral:
    """Cached suffix antiderivative T(x) = int_x^b f(y) dy of a vectorized f.

    Like ``integrate``'s integrands, f may return trailing axes; T(x) has
    them too.  Builds one adaptive panelization of [a, b] up front, shared
    by all components, then answers arbitrary lower limits with a suffix sum
    plus a single fresh Kronrod rule on the partial panel.  The panels come
    from ``_refine``, with the tolerance held per component, not in the max
    norm: each component's summed error estimate meets
    ``max(abs_tol, rel_tol * |its total|)``, and a panel is split while any
    component is over its share of its own tolerance.  A component that is
    small is not held to the scale of a large one, and one that is
    identically zero needs only ``abs_tol``.

    Vectorized over x; each lower limit's rule is summed on its own, node by
    node, so a value does not depend on the other entries of its array.
    Raises as ``_refine`` does; a NaN lower limit raises DomainError.
    """

    def __init__(self, f, a: float, b: float, q: Quadrature | None = None):
        if q is None:
            q = Quadrature()
        self._f = f
        self.a = float(a)
        self.b = float(b)
        if not b > a:
            raise ValueError("TailIntegral requires b > a")
        pa, vals, _, err = _refine(f, a, b, q, _colabs)
        order = np.argsort(pa)
        self._edges = np.append(pa[order], b)
        panel_vals = vals[order]
        suffix = np.zeros((panel_vals.shape[0] + 1,) + panel_vals.shape[1:])
        suffix[:-1] = np.cumsum(panel_vals[::-1], axis=0)[::-1]
        self._suffix = suffix
        scalar = suffix.ndim == 1
        self.total = float(suffix[0]) if scalar else suffix[0]
        self.error = float(err[0]) if scalar else err.reshape(suffix.shape[1:])

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        if np.isnan(x_arr).any():
            raise DomainError("TailIntegral lower limit is NaN")
        tail = self._suffix.shape[1:]
        out = np.empty(x_arr.shape + tail)
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
            fx = fx.reshape(xm.size, 15, -1)
            # node by node, not a matrix product or a reduction: their
            # summation order may depend on the number of lower limits
            partial = sum(fx[:, k] * w for k, w in enumerate(KRONROD_WEIGHTS))
            partial = (partial * h[:, None]).reshape(xm.shape + tail)
            out[mid] = partial + self._suffix[idx + 1]
        if not scalar:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]
