"""AP-to-UE distance law for a uniform deployment on a disk, plus its sampler.

The APs live on a ceiling disk of radius ``r_d`` at height ``h_A``; the UE
sits at horizontal offset ``v_0`` from the disk center at height ``h_U``.
Every 3-D AP-UE distance therefore falls in ``[z_l, z_p]`` with
``z_l = h_A - h_U``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import NetworkConfig, derived_constants
from .propagation import kappa_los

#: allowed floating-point spill of the arccos argument beyond [-1, 1]
ARCCOS_SPILL_TOL = 1e-9


@dataclass(frozen=True)
class DistanceSupport:
    """Endpoints of the AP-UE distance law: z_l <= z_m <= z_p."""

    z_l: float
    z_m: float
    z_p: float

    @classmethod
    def from_scenario(cls, r_d: float, v_0: float, delta_h: float) -> "DistanceSupport":
        return cls(
            z_l=delta_h,
            z_m=math.hypot(r_d - v_0, delta_h),
            z_p=math.hypot(r_d + v_0, delta_h),
        )


def support(cfg: NetworkConfig) -> DistanceSupport:
    g = cfg.geometry
    return DistanceSupport.from_scenario(g.r_d, g.v_0, g.h_A - g.h_U)


def distance_pdf(z, sup: DistanceSupport, v_0: float, r_d: float):
    """Density of the distance from the UE to one uniformly placed AP.

    Piecewise: ``2 z / r_d^2`` on ``[z_l, z_m]``; on ``[z_m, z_p]`` the disk
    boundary cuts the horizontal circle of radius ``sqrt(z^2 - z_l^2)`` and the
    density picks up the subtended-angle factor ``arccos(.) / pi``.  Zero
    outside the support.  Accepts scalars or arrays.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.zeros_like(z_arr)

    if v_0 == 0.0:
        inner = (z_arr >= sup.z_l) & (z_arr <= sup.z_p)
    else:
        inner = (z_arr >= sup.z_l) & (z_arr < sup.z_m)
    out[inner] = 2.0 * z_arr[inner] / r_d**2

    if v_0 > 0.0 and sup.z_p >= sup.z_m:
        # the boundary point z_m belongs to this branch: the arccos argument
        # clamps to -1 there, reproducing the inner-branch value exactly
        edge = (z_arr >= sup.z_m) & (z_arr <= sup.z_p)
        if np.any(edge):
            ze = z_arr[edge]
            horiz = np.sqrt(np.maximum(ze**2 - sup.z_l**2, 0.0))
            num = ze**2 + v_0**2 - r_d**2 - sup.z_l**2
            arg = num / np.maximum(2.0 * v_0 * horiz, np.finfo(float).tiny)
            if np.any(np.abs(arg) > 1.0 + ARCCOS_SPILL_TOL):
                bad = arg[np.abs(arg) > 1.0 + ARCCOS_SPILL_TOL]
                raise DomainError(
                    f"arccos argument {bad[0]!r} outside [-1, 1] beyond tolerance"
                )
            arg = np.clip(arg, -1.0, 1.0)
            out[edge] = 2.0 * ze / (math.pi * r_d**2) * np.arccos(arg)

    return float(out[0]) if scalar else out


class SmoothingMap:
    """Monotone map v -> z from the smoothing variable v in [0, v_max] onto
    the distance support [z_l, z_p], whose Jacobian dz/dv cancels the
    square-root endpoints of the distance law.

    Integrands over the distance law are not smooth in z at three points:
    the LOS probability exp(-beta sqrt(z^2 - z_l^2)) behaves like
    sqrt(z - z_l) at z_l, and off centre the arccos factor of ``distance_pdf``
    behaves like sqrt(z - z_m) and sqrt(z_p - z) at the ends of its branch.
    Gauss-Kronrod reads each as a singularity and bisects toward it sweep
    after sweep.  In v they are smooth:

    - on [z_l, z_m], v in [0, 1]: z = z_l + (z_m - z_l) v^2;
    - on the arccos branch [z_m, z_p], t = v - v_m in [0, 1]: the smoothstep
      cubic z = z_m + (z_p - z_m)(3 t^2 - 2 t^3), whose Jacobian
      6 t (1 - t)(z_p - z_m) vanishes at both ends.

    A piece of zero width takes no room in v: a centred UE (z_m = z_p) has
    v_max = 1, and a UE at the disk edge (v_0 = r_d, so z_m = z_l) has
    v_m = 0 and the cubic alone, whose Jacobian also covers z_l.  ``v``
    inverts ``z``; NaN stays NaN, and z outside the support clamps to the
    nearer end of [0, v_max].
    """

    def __init__(self, sup: DistanceSupport):
        self.sup = sup
        self.v_m = 1.0 if sup.z_m > sup.z_l else 0.0
        self.v_max = self.v_m + (1.0 if sup.z_p > sup.z_m else 0.0)

    def z(self, v):
        """(z, dz/dv) at v in [0, v_max]; arrays of v's shape."""
        v = np.asarray(v, dtype=float)
        zl, zm, zp = self.sup.z_l, self.sup.z_m, self.sup.z_p
        t = v - self.v_m
        first = t < 0.0
        z = np.where(first, zl + (zm - zl) * v * v,
                     zm + (zp - zm) * t * t * (3.0 - 2.0 * t))
        jac = np.where(first, 2.0 * (zm - zl) * v,
                       6.0 * (zp - zm) * t * (1.0 - t))
        return z, jac

    def v(self, z):
        """The v in [0, v_max] with z(v) = z."""
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


def sample_deployment_arrays(cfg: NetworkConfig, rng: np.random.Generator,
                             n_trials: int):
    """Vectorized deployment sampler for ``n_trials`` independent networks.

    Returns ``(dist, is_los)``: the 3-D AP-UE distances, ``(n_trials, N_A)``,
    and the LOS marks of the THz APs, ``(n_trials, n_thz)``.  The THz APs
    are the first ``n_thz`` columns: the positions are i.i.d. and
    independent of which APs are THz, so any fixed ``n_thz`` columns have
    the joint law of a uniformly random THz subset.  Draw order: radii,
    angles (off centre only), LOS marks of the THz block; a seed gives a
    different stream from versions that drew THz subset keys, angles for a
    centred UE and LOS marks for RF APs.  The squared horizontal distance
    r^2 + v_0^2 - 2 r v_0 cos a is written (r - v_0)^2 + 2 r v_0 (1 - cos a)
    so that no rounding takes it below zero.
    """
    g = cfg.geometry
    der = derived_constants(cfg)

    radii = g.r_d * np.sqrt(rng.random((n_trials, g.N_A)))
    sq = (radii - g.v_0) ** 2 + der.delta_h**2
    if g.v_0 != 0.0:
        # 2 r v_0 (1 - cos a) = (cos a - 1) r (-2 v_0), in one buffer
        term = np.cos(2.0 * math.pi * rng.random(sq.shape))
        term -= 1.0
        term *= radii
        term *= -2.0 * g.v_0
        sq += term
    dist = np.sqrt(sq, out=sq)

    thz = dist[:, :g.n_thz]
    is_los = rng.random(thz.shape) < kappa_los(thz, der.beta, der.delta_h)
    return dist, is_los
