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

``TailIntegral`` answers its lower limits from the integrand values its build
computed: per final panel it keeps the Chebyshev coefficients of the
interpolant's mean over the panel's right part, and it calls the integrand
again only where the tail vanishes faster than that interpolant resolves,
for a fresh Kronrod rule on the partial panel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import ConfigError, DomainError, MaxDepthExceeded, NonFiniteEstimate

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
_KRONROD_GAUSS = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS])

_ERR_FLOOR = 50.0 * np.finfo(float).eps
#: narrowest panel split, relative to max(|a|, |b|, 1): 64 ulp
_MIN_WIDTH = 64.0 * np.finfo(float).eps


def _chebyshev(s):
    """T_0(s) .. T_14(s), (X, 15), by the three-term recurrence."""
    t = np.empty((15, s.size))
    t[0] = 1.0
    t[1] = s
    s2 = 2.0 * s
    for k in range(2, 15):
        np.multiply(s2, t[k - 1], out=t[k])
        t[k] -= t[k - 2]
    return np.ascontiguousarray(t.T)


@cache
def _tail_means():
    """The (15, 15) map from a function's values at the Kronrod nodes to
    the Chebyshev coefficients of H(s), the mean over [s, 1] of P, its
    degree-14 interpolant on [-1, 1].  H has degree 14 too, so it is fixed
    by its values at the Kronrod nodes, each a Kronrod rule over [s, 1],
    which is exact on P.  Built on first use, not at import, so that code
    which builds no tail, such as the Monte-Carlo engine, does not pay the
    0.7 MB of memory that the inverse's LAPACK set-up takes.  Callers only
    read the array."""
    to_cheb = np.linalg.inv(_chebyshev(NODES))
    y = NODES[:, None] + (1.0 - NODES[:, None]) * (1.0 + NODES) / 2.0
    interp = _chebyshev(y.reshape(-1)) @ to_cheb          # P(y) = interp @ f
    means = 0.5 * KRONROD_WEIGHTS @ interp.reshape(15, 15, 15)   # H(NODES)
    return to_cheb @ means


#: the noise of a lookup's mean H(s), per unit of sum_k |h_k|: the rounding
#: of the node values, of the map to h and of the sum, with room for the
#: interpolant's own error (at 64 eps, lookups off centre on the engine's
#: tables strayed 6e-12 from the fresh rule; at 512 eps, 6e-13)
_NOISE = 512.0 * np.finfo(float).eps
#: a lookup whose noise passes this share of its value falls back to a
#: fresh Kronrod rule
_LOOKUP_TOL = 1e-12


@dataclass(frozen=True)
class Quadrature:
    """Tolerances and panel policy of one integration.

    Every panel's error estimate is at least ``_ERR_FLOOR`` times its
    integral of |f|, so wherever ``abs_tol`` does not dominate, a ``rel_tol``
    below that floor is out of reach and refinement would double the panels
    on every sweep until memory runs out.  Such a tolerance raises
    ``ConfigError`` here, before any integrand is evaluated.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.rel_tol >= _ERR_FLOOR:
            raise ConfigError(
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
    """Kronrod/Gauss evaluation of panels [a_i, b_i]; returns (fx, values,
    errors): the integrand at the panels' Kronrod nodes (m, 15, C), C the
    flattened trailing axes, the Kronrod values (m, *tail) and the errors
    reduced over the trailing axes by ``norm`` to (m, k).  Raises
    NonFiniteEstimate on the first panel whose error is not finite."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * NODES
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float)
    tail = fx.shape[1:]
    fx = fx.reshape(a.size, 15, -1)
    kg = _KRONROD_GAUSS @ fx                                  # (m, 2, C)
    h = half[:, None]
    kron = kg[:, 0]
    err = norm((kron - kg[:, 1]) * h)
    resabs = (KRONROD_WEIGHTS @ np.abs(fx)) * h
    err = np.maximum(err, _ERR_FLOOR * norm(resabs))
    bad = ~np.isfinite(err).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteEstimate(float(a[i]), float(b[i]), float(np.max(err[i])))
    return fx, (kron * h).reshape(a.size, *tail), err


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
    Kronrod nodes round onto its ends, is never split: MaxDepthExceeded
    names the worst such panel that would have to be.  NonFiniteEstimate
    names a panel whose error is not finite.

    Returns the final panels' starts, their integrand values at the nodes
    (``_eval_panels``' fx), their values, the total and the summed error
    estimate.
    """
    pts = sorted({float(p) for p in q.breakpoints if a < p < b})
    edges = np.array([a, *pts, b], dtype=float)
    pa, pb = edges[:-1], edges[1:]
    fx, vals, errs = _eval_panels(f, pa, pb, norm)
    span = b - a
    min_width = _MIN_WIDTH * max(abs(a), abs(b), 1.0)
    while True:
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        tol = np.maximum(q.abs_tol, q.rel_tol * norm(total[None])[0])
        if (err <= tol).all():
            return pa, fx, vals, total, err

        split = (errs > tol * ((pb - pa) / span)[:, None]).any(axis=1)
        if not split.any():
            split = errs.max(axis=1) >= errs.max()
        sa, sb = pa[split], pb[split]
        stuck = sb - sa <= min_width
        if stuck.any():
            worst = np.where(stuck, errs[split].max(axis=1), -np.inf)
            i = int(np.argmax(worst))
            raise MaxDepthExceeded(float(sa[i]), float(sb[i]), float(worst[i]))

        smid = 0.5 * (sa + sb)
        ca = np.concatenate([sa, smid])
        cb = np.concatenate([smid, sb])
        cfx, cvals, cerrs = _eval_panels(f, ca, cb, norm)
        keep = ~split
        pa = np.concatenate([pa[keep], ca])
        pb = np.concatenate([pb[keep], cb])
        fx = np.concatenate([fx[keep], cfx], axis=0)
        vals = np.concatenate([vals[keep], cvals], axis=0)
        errs = np.concatenate([errs[keep], cerrs], axis=0)


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
    pa, _, _, total, err = _refine(f, a, b, q, _maxabs)
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
    by all components.  The panels come from ``_refine``, with the
    tolerance held per component, not in the max norm: each component's
    summed error estimate meets ``max(abs_tol, rel_tol * |its total|)``, and
    a panel is split while any component is over its share of its own
    tolerance.  A component that is small is not held to the scale of a
    large one, and one that is identically zero needs only ``abs_tol``.

    A lower limit x in panel [p, q] is answered with no call to f, as the
    sum of the panels beyond q plus (q - x) H(s): s = 1 - (q - x) / h on
    [-1, 1], h the panel's half-width, and H(s) the mean over [s, 1] of P,
    the degree-14 interpolant of the values of f at the panel's 15 Kronrod
    nodes that the build computed.  The build keeps H's 15 Chebyshev
    coefficients h_k per panel and component (``_tail_means``); as the
    Kronrod rule is interpolatory, 2 h H(-1) is the panel's Kronrod value.
    H is summed without the cancellation an antiderivative would suffer
    near q, so where f stays away from 0 at b, a lookup keeps its relative
    accuracy up to b.  Where f vanishes toward b, the tail falls below P's
    noise, about ``_NOISE`` sum_k |h_k| (q - x); where that noise exceeds
    ``_LOOKUP_TOL`` of a component's value, the lower limit falls back to a
    fresh Kronrod rule on [x, q], which calls f at 15 nodes.

    On a partial panel P errs by up to about the panel's error estimate,
    so a lookup is as accurate as the build in absolute terms: on the
    analytic engine's tables, for v_0 from 0 to 80, within twice ``error``
    of the fresh rule.  Centred and at v_0 = 10, the lookups agree with the
    fresh rule within 1e-12 of the value per component, down to 1e-12
    below b; at v_0 = 1, where one panel spans the short arccos branch, up
    to 6e-10 of a value near b, though within the build's error.

    Vectorized over x: T(x) is an array of x's shape followed by f's
    trailing axes, and ``total`` and ``error`` arrays of the trailing axes'
    shape.  Each lower limit is summed on its own, so a value does not
    depend on the other entries of its array.  Raises as
    ``_refine`` does; a NaN lower limit raises DomainError.
    """

    def __init__(self, f, a: float, b: float, q: Quadrature | None = None):
        if q is None:
            q = Quadrature()
        self._f = f
        self.a = float(a)
        self.b = float(b)
        if not b > a:
            raise ValueError("TailIntegral requires b > a")
        pa, fx, vals, _, err = _refine(f, a, b, q, _colabs)
        order = np.argsort(pa)
        self._ends = np.append(pa[order][1:], b)               # (P,)
        self._half = 0.5 * (self._ends - pa[order])
        self._shape = vals.shape[1:]
        suffix = np.cumsum(vals[order][::-1].reshape(order.size, -1), axis=0)
        # the panels' sum beyond each panel's end, (P, C)
        self._beyond = np.zeros_like(suffix)
        self._beyond[:-1] = suffix[-2::-1]
        self._total = suffix[-1]
        self._means = _tail_means() @ fx[order]               # (P, 15, C)
        self._noise = _NOISE / _LOOKUP_TOL * np.abs(self._means).sum(axis=1)
        self.total = self._total.reshape(self._shape)
        self.error = err.reshape(self._shape)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        xs = x_arr.reshape(-1)
        inside = (xs > self.a) & (xs < self.b)
        if inside.all():
            val = self._lookup(xs)
        else:
            if np.isnan(xs).any():
                raise DomainError("TailIntegral lower limit is NaN")
            val = np.where((xs <= self.a)[:, None], self._total, 0.0)
            if inside.any():
                val[inside] = self._lookup(xs[inside])
        return val.reshape(x_arr.shape + self._shape)

    def _lookup(self, x):
        """T(x), (X, C), at lower limits x in (a, b)."""
        idx = np.searchsorted(self._ends, x, side="right")
        width = self._ends[idx] - x
        # the partial panel's width times P's mean over it, by a stacked
        # product: row by row, whatever the number of rows
        cheb = _chebyshev(1.0 - width / self._half[idx])
        val = np.matmul(cheb[:, None], self._means[idx])[:, 0]
        val *= width[:, None]
        val += self._beyond[idx]
        fall = self._noise[idx] * width[:, None] > np.abs(val)
        if fall.any():
            fall = fall.any(axis=1)
            val[fall] = self._fresh(x[fall], idx[fall])
        return val

    def _fresh(self, x, idx):
        """T(x), (X, C), by a fresh Kronrod rule on [x, q], q the end of the
        panel ``idx`` holding x, plus the panels' sum beyond q."""
        right = self._ends[idx]
        m = 0.5 * (x + right)
        h = 0.5 * (right - x)
        nodes = m[:, None] + h[:, None] * NODES
        fx = np.asarray(self._f(nodes.reshape(-1)), dtype=float)
        fx = fx.reshape(x.size, 15, -1)
        # node by node, not a matrix product or a reduction: their
        # summation order may depend on the number of lower limits
        partial = sum(fx[:, k] * w for k, w in enumerate(KRONROD_WEIGHTS))
        return partial * h[:, None] + self._beyond[idx]
