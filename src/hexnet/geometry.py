"""AP-to-UE distance law for a uniform deployment on a disk, plus its sampler.

The APs live on a ceiling disk of radius ``r_d`` at height ``h_A``; the UE
sits at horizontal offset ``v_0`` from the disk center at height ``h_U``.
Every 3-D AP-UE distance therefore falls in ``[z_l, z_p]`` with
``z_l = h_A - h_U``.

The law is written once, in the smoothing variable v of ``SmoothingMap``:
``distance_pdf`` gives the distance z(v) and the weight f_Z(z) dz/dv, with
both ends of the arccos branch taken from v without cancellation.  Nothing
evaluates f_Z in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import NetworkConfig


@dataclass(frozen=True)
class DistanceSupport:
    """Endpoints of the AP-UE distance law: z_l <= z_m <= z_p."""

    z_l: float
    z_m: float
    z_p: float


def support(cfg: NetworkConfig) -> DistanceSupport:
    """The distance support of the scenario: z_l the height gap, z_m and
    z_p the distances to the nearest and farthest points of the disk's rim."""
    g = cfg.geometry
    return DistanceSupport(z_l=g.delta_h,
                           z_m=math.hypot(g.r_d - g.v_0, g.delta_h),
                           z_p=math.hypot(g.r_d + g.v_0, g.delta_h))


class SmoothingMap:
    """The smoothing variable v in [0, v_max] of the distance support
    [z_l, z_p]: the monotone map z(v) whose Jacobian dz/dv cancels the
    square-root endpoints of the distance law.

    Integrands over the distance law are not smooth in z at three points:
    the LOS probability exp(-beta sqrt(z^2 - z_l^2)) behaves like
    sqrt(z - z_l) at z_l, and off centre the arccos factor of f_Z behaves
    like sqrt(z - z_m) and sqrt(z_p - z) at the ends of its branch.
    Gauss-Kronrod reads each as a singularity and bisects toward it sweep
    after sweep.  In v they are smooth:

    - on [z_l, z_m], v in [0, 1]: z = z_l + (z_m - z_l) v^2;
    - on the arccos branch [z_m, z_p], t = v - v_m in [0, 1]: the smoothstep
      cubic z = z_m + (z_p - z_m)(3 t^2 - 2 t^3), whose Jacobian
      6 t (1 - t)(z_p - z_m) vanishes at both ends.

    A piece of zero width takes no room in v: a centred UE (z_m = z_p) has
    v_max = 1, and a UE at the disk edge (v_0 = r_d, so z_m = z_l) has
    v_m = 0 and the cubic alone, whose Jacobian also covers z_l.
    ``distance_pdf`` maps v to z; ``v`` inverts it.
    """

    def __init__(self, sup: DistanceSupport):
        self.sup = sup
        self.v_m = 1.0 if sup.z_m > sup.z_l else 0.0
        self.v_max = self.v_m + (1.0 if sup.z_p > sup.z_m else 0.0)

    def v(self, z):
        """The v in [0, v_max] with z(v) = z.  NaN stays NaN, and z outside
        the support clamps to the nearer end of [0, v_max]."""
        z = np.asarray(z, dtype=float)
        zl, zm, zp = self.sup.z_l, self.sup.z_m, self.sup.z_p
        v = np.where(np.isnan(z), np.nan, 0.0)
        if zm > zl:
            v = np.sqrt(np.clip((z - zl) / (zm - zl), 0.0, 1.0))
        if zp > zm:
            s = np.clip((z - zm) / (zp - zm), 0.0, 1.0)
            # the root in [0, 1] of 3 t^2 - 2 t^3 = s
            t = 0.5 - np.sin(np.arcsin(1.0 - 2.0 * s) / 3.0)
            v = np.where(z > zm, self.v_m + t, v)
        return v


def distance_pdf(v, vmap: SmoothingMap, v_0: float, r_d: float):
    """The distance law in the smoothing variable: ``(z, f_Z(z) dz/dv)`` at
    v, arrays of v's shape, z = z(v) of ``vmap``.  A v outside [0, v_max]
    is taken as the nearer end, where the weight is 0.

    f_Z is ``2 z / r_d^2`` on [z_l, z_m].  On the arccos branch the disk's
    rim cuts the horizontal circle of radius h = sqrt(z^2 - z_l^2) around
    the UE, and f_Z picks up the angle fraction theta / pi, with cos theta =
    (h^2 + v_0^2 - r_d^2) / (2 v_0 h).  With h_m = r_d - v_0 and
    h_p = r_d + v_0, theta = 2 atan2(sqrt((h_p - h)(h + h_m)),
    sqrt((h - h_m)(h + h_p))); h - h_m and h_p - h are taken from
    z - z_m = (z_p - z_m) t^2 (3 - 2t) and z_p - z = (z_p - z_m)(1 - t)^2
    (1 + 2t), products of non-negative factors, so neither end of the
    branch loses digits to cancellation and theta stays in [0, pi].
    """
    sup = vmap.sup
    zl, zm, zp = sup.z_l, sup.z_m, sup.z_p
    v = np.clip(np.asarray(v, dtype=float), 0.0, vmap.v_max)
    t = v - vmap.v_m
    first = t < 0.0
    dz_m = (zp - zm) * t * t * (3.0 - 2.0 * t)                  # z - z_m
    z = np.where(first, zl + (zm - zl) * v * v, zm + dz_m)
    w = np.where(first, 2.0 * (zm - zl) * v,
                 6.0 * (zp - zm) * t * (1.0 - t))                  # dz/dv
    w *= 2.0 * z / r_d**2
    arc = ~first
    if v_0 > 0.0 and arc.any():
        za, ta = z[arc], t[arc]
        dz_p = (zp - zm) * (1.0 - ta) ** 2 * (1.0 + 2.0 * ta)      # z_p - z
        h_m, h_p = r_d - v_0, r_d + v_0
        h = np.sqrt((zm - zl + dz_m[arc]) * (za + zl))
        # h - h_m and h_p - h; at v_0 = r_d, h_m = 0 and z_m = z_l, and the
        # quotient would be 0 / 0 at t = 0: h itself is h - h_m
        d_m = h if h_m == 0.0 else dz_m[arc] * (za + zm) / (h + h_m)
        d_p = dz_p * (zp + za) / (h_p + h)
        w[arc] *= 2.0 / math.pi * np.arctan2(np.sqrt(d_p * (h + h_m)),
                                             np.sqrt(d_m * (h + h_p)))
    return z, w


def _sin2_pi(u, scratch):
    """sin^2(pi U) of uniforms ``u`` in [0, 1), in place of ``u``; the
    float64 ``scratch``, of u's shape, is overwritten.

    U is folded to min(U, 1 - U), which is exact (1 - U is exact for
    U >= 1/2), and the sine is taken in float32 of the float64 product
    pi U, rounded once, in the first half of each row of ``scratch``.  The
    result is 0 at U = 0 and within 3e-7 relative of the float64
    sin^2(pi U) at every multiple of 2^-53 (every value ``Generator.random``
    draws), where the float64 1 - cos(2 pi U) reads 0 for U below about
    1.7e-9.
    """
    np.minimum(u, np.subtract(1.0, u, out=scratch), out=u)
    s = np.multiply(u, math.pi, out=scratch.view(np.float32)[..., :u.shape[-1]])
    np.sin(s, out=s)
    return np.multiply(s, s, out=u, dtype=np.float64)


def sample_deployment_arrays(cfg: NetworkConfig, rng: np.random.Generator,
                             n_trials: int, bufs=None):
    """Vectorized deployment sampler for ``n_trials`` independent networks.

    Returns ``(dist, is_los)``: the 3-D AP-UE distances, ``(n_trials, N_A)``,
    and the LOS marks of the THz APs, ``(n_trials, n_thz)``.  The THz APs
    are the first ``n_thz`` columns: the positions are i.i.d. and
    independent of which APs are THz, so any fixed ``n_thz`` columns have
    the joint law of a uniformly random THz subset.

    ``bufs`` are three flat float64 arrays of at least ``n_trials * N_A``
    elements and one flat bool array of at least ``n_trials * n_thz`` (fresh
    ones when omitted): ``dist`` and ``is_los`` are views of the first and
    of the bool one, and the other two are overwritten.

    Draw order: one uniform U per AP for its radius r = r_d sqrt(U), one
    angle 2 pi U per AP off centre only, then one uniform per THz AP for its
    LOS mark.  The sampler works in the squared horizontal distance h^2:
    r_d^2 U for a centred UE; off centre r^2 + v_0^2 - 2 r v_0 cos 2 pi U,
    written (r - v_0)^2 + 4 r v_0 sin^2(pi U) so that no rounding takes it
    below zero, with sin^2 from ``_sin2_pi`` (within 3e-7 relative).  A THz
    AP is LOS with probability exp(-beta h), taken from h^2 directly, and
    d = sqrt(h^2 + delta_h^2).
    """
    g = cfg.geometry
    if bufs is None:
        size = n_trials * g.N_A
        bufs = (np.empty(size), np.empty(size), np.empty(size),
                np.empty(n_trials * g.n_thz, bool))
    d_buf, a_buf, b_buf, los_buf = bufs

    def view(buf, cols):
        return buf[:n_trials * cols].reshape(n_trials, cols)

    sq = rng.random(out=view(d_buf, g.N_A))
    if g.v_0 == 0.0:
        sq *= g.r_d**2
    else:
        radii = np.sqrt(sq, out=sq)
        radii *= g.r_d
        term = _sin2_pi(rng.random(out=view(a_buf, g.N_A)), view(b_buf, g.N_A))
        term *= radii
        term *= 4.0 * g.v_0
        radii -= g.v_0
        sq = np.square(radii, out=radii)
        sq += term

    kappa = np.sqrt(sq[:, :g.n_thz], out=view(a_buf, g.n_thz))
    kappa *= -cfg.blockage.beta(g.h_A, g.h_U)
    np.exp(kappa, out=kappa)
    is_los = np.less(rng.random(out=view(b_buf, g.n_thz)), kappa,
                     out=view(los_buf, g.n_thz))
    sq += g.delta_h**2
    return np.sqrt(sq, out=sq), is_los
