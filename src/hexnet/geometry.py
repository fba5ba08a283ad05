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


def sample_deployment_arrays(cfg: NetworkConfig, rng: np.random.Generator,
                             n_trials: int):
    """Vectorized deployment sampler for ``n_trials`` independent networks.

    Returns ``(x, y, dist, is_thz, is_los)``, each of shape
    ``(n_trials, N_A)``.  ``is_los`` is meaningful only where ``is_thz``.

    Draw order is fixed (radii, angles, THz subset keys, LOS marks) so that a
    seeded stream fully determines the result.  The THz subset of each trial
    is the ``n_thz`` APs with the smallest of ``N_A`` uniform keys, found by
    one ``argpartition``: a uniformly random subset of the AP indices.  The
    keys are drawn only when the subset is not all or none of the APs.
    """
    g = cfg.geometry
    n_a, n_thz = g.N_A, g.n_thz
    der = derived_constants(cfg)

    radii = g.r_d * np.sqrt(rng.random((n_trials, n_a)))
    angles = 2.0 * math.pi * rng.random((n_trials, n_a))
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)

    is_thz = np.full((n_trials, n_a), n_thz == n_a)
    if 0 < n_thz < n_a:
        keys = rng.random((n_trials, n_a))
        smallest = np.argpartition(keys, n_thz - 1, axis=1)[:, :n_thz]
        np.put_along_axis(is_thz, smallest, True, axis=1)

    dist = np.sqrt((x - g.v_0) ** 2 + y**2 + der.delta_h**2)
    is_los = rng.random((n_trials, n_a)) < kappa_los(dist, der.beta, der.delta_h)
    return x, y, dist, is_thz, is_los
