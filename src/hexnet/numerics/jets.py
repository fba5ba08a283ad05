"""Truncated Taylor series (jets) of the interference Laplace transforms.

A jet stores the normalized Taylor coefficients ``coeffs[k] = f^(k)(s0) / k!``
of a function at an expansion point, so derivatives up to the jet order come
out to machine precision - unlike finite differences, which degrade
catastrophically on high powers.  Coefficient arrays may carry trailing axes
(``coeffs.shape == (K+1, ...)``), which vectorizes over grids of expansion
points or quadrature nodes.

The pipeline needs two primitives: ``affine_power`` expands one interferer's
kernel (a0 + a1 ds)^p, in which the Laplace argument enters affinely, and
``Jet.__pow__`` raises the integrated interferer bracket to the interferer
count.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __pow__(self, exponent: float) -> "Jet":
        """Real power of a jet with non-zero value, by J.C.P. Miller's
        recurrence c_k = sum_{j=1..k} ((p+1) j - k) a_j c_{k-j} / (k a_0)."""
        a = self.coeffs
        p1 = float(exponent) + 1.0
        out = np.empty_like(a)
        out[0] = a[0] ** float(exponent)
        for k in range(1, a.shape[0]):
            acc = (p1 - k) * a[1] * out[k - 1]
            for j in range(2, k + 1):
                acc = acc + (p1 * j - k) * a[j] * out[k - j]
            out[k] = acc / (k * a[0])
        return Jet(out)


def affine_power(a0, a1, exponent: float, order: int) -> Jet:
    """Jet of (a0 + a1 * ds)^p around ds = 0, for a0 > 0.

    Powers of an affine jet have the closed binomial recurrence
    c_u = c_{u-1} * (p - u + 1)/u * (a1/a0); this is the hot path of the
    interference kernels.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    shape = np.broadcast_shapes(a0.shape, a1.shape)
    out = np.empty((order + 1,) + shape)
    out[0] = a0**exponent
    if order >= 1:
        ratio = a1 / a0
        for u in range(1, order + 1):
            out[u] = out[u - 1] * ((exponent - u + 1.0) / u) * ratio
    return Jet(out)
