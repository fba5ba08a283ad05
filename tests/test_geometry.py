import math

import numpy as np
import pytest

from conftest import f_z
from hexnet import default_config, with_updates
from hexnet.geometry import (
    SmoothingMap,
    distance_pdf,
    sample_deployment_arrays,
    support,
)
from hexnet.numerics.quadrature import Quadrature, TailIntegral, integrate
from hexnet.propagation import kappa_los


def _sup(r_d, v_0, dh):
    """The support of Table 3 with disk radius r_d, UE offset v_0 and height
    gap dh (the UE on the floor, so that the gap is exactly h_A)."""
    return support(with_updates(default_config(), r_d=r_d, v_0=v_0,
                                h_A=dh, h_U=0.0))


def _law(r_d, v_0, dh):
    """(vmap, law) of that scenario: its smoothing map and the distance law
    v -> (z, f_Z dz/dv)."""
    vmap = SmoothingMap(_sup(r_d, v_0, dh))
    return vmap, lambda v: distance_pdf(v, vmap, v_0, r_d)


def _mass(r_d, v_0, dh, rel_tol=1e-10):
    """The law's mass over [0, v_max]."""
    vmap, law = _law(r_d, v_0, dh)
    q = Quadrature(rel_tol=rel_tol, abs_tol=1e-13, breakpoints=(vmap.v_m,))
    return integrate(lambda v: law(v)[1], 0.0, vmap.v_max, q).value


def test_support_endpoints():
    sup = _sup(80.0, 40.0, 3.1)
    assert sup.z_l == 3.1
    assert sup.z_m == pytest.approx(math.hypot(40, 3.1))
    assert sup.z_p == pytest.approx(math.hypot(120, 3.1))
    centered = _sup(80.0, 0.0, 3.1)
    assert centered.z_m == centered.z_p


def test_pdf_central_branch_value():
    # centred, f_Z = 2 z / r_d^2 and dz/dv = 2 (z_m - z_l) v
    vmap, law = _law(80.0, 0.0, 3.1)
    v = vmap.v(10.0)
    z, w = law(v)
    assert z == pytest.approx(10.0, rel=1e-14, abs=0.0)
    jac = 2.0 * (vmap.sup.z_m - vmap.sup.z_l) * v
    assert w / jac == pytest.approx(0.003125, rel=1e-12, abs=0.0)


def test_pdf_outside_support():
    vmap, law = _law(80.0, 0.0, 3.1)
    for v in (-0.01, vmap.v_max + 0.01):
        assert law(v)[1] == 0.0
    assert law(-0.01)[0] == vmap.sup.z_l and law(2.0)[0] == vmap.sup.z_p


def test_pdf_branch_continuity():
    # f_Z = w / (dz/dv) is continuous at z_m, where the arccos branch starts
    # with the full angle pi
    vmap, law = _law(80.0, 40.0, 3.1)
    sup, d = vmap.sup, 1e-9
    below = law(vmap.v_m - d)[1] / (2.0 * (sup.z_m - sup.z_l) * (1.0 - d))
    above = law(vmap.v_m + d)[1] / (6.0 * (sup.z_p - sup.z_m) * d * (1.0 - d))
    assert below == pytest.approx(2.0 * sup.z_m / 80.0**2, rel=1e-8,
                                   abs=0.0)
    assert above == pytest.approx(below, rel=1e-6, abs=0.0)


def test_pdf_matches_z_form_reference():
    # away from the ends of the arccos branch, where the z form loses its
    # digits, the law equals the paper's f_Z in z times the map's dz/dv
    rng = np.random.default_rng(7)
    for _ in range(20):
        r_d = rng.uniform(10.0, 150.0)
        v_0 = rng.uniform(0.0, r_d)
        vmap, law = _law(r_d, v_0, rng.uniform(0.3, 6.0))
        v = np.linspace(0.0, vmap.v_max, 401)
        v = v[np.abs(v - np.round(v)) > 0.01]
        sup, t = vmap.sup, v - vmap.v_m
        jac = np.where(t < 0.0, 2.0 * (sup.z_m - sup.z_l) * v,
                       6.0 * (sup.z_p - sup.z_m) * t * (1.0 - t))
        z, w = law(v)
        assert np.allclose(w, f_z(z, sup, v_0, r_d) * jac, rtol=1e-9, atol=0.0)


def test_pdf_normalizes_at_reference_point():
    assert _mass(80.0, 40.0, 3.1) == pytest.approx(1.0, abs=1e-8)


def test_pdf_normalizes_on_random_scenarios():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r_d = rng.uniform(10.0, 150.0)
        v_0 = rng.uniform(0.0, r_d)
        dh = rng.uniform(0.3, 6.0)
        assert _mass(r_d, v_0, dh) == pytest.approx(1.0, abs=1e-8)


def test_pdf_matches_lens_area_law():
    # independent oracle: P[Z <= z] equals the disk-overlap (lens) area of the
    # horizontal circle around the UE, normalized by the deployment disk
    def lens_cdf(z, r_d, v_0, dh):
        if z <= dh:
            return 0.0
        w = math.sqrt(z * z - dh * dh)
        if w >= r_d + v_0:
            return 1.0
        if v_0 == 0.0:
            return min(w, r_d) ** 2 / r_d**2
        if w + v_0 <= r_d:
            return w**2 / r_d**2
        d1 = (v_0**2 + w**2 - r_d**2) / (2 * v_0)
        d2 = v_0 - d1
        area = (w**2 * math.acos(d1 / w) - d1 * math.sqrt(w**2 - d1**2)
                + r_d**2 * math.acos(d2 / r_d) - d2 * math.sqrt(r_d**2 - d2**2))
        return area / (math.pi * r_d**2)

    vmap, law = _law(80.0, 40.0, 3.1)
    q = Quadrature(rel_tol=1e-11, abs_tol=1e-14, breakpoints=(vmap.v_m,))
    for z in (5.0, 20.0, 41.0, 60.0, 90.0, 115.0):
        num = integrate(lambda v: law(v)[1], 0.0, float(vmap.v(z)), q).value
        assert num == pytest.approx(lens_cdf(z, 80.0, 40.0, 3.1), abs=1e-9)


def test_pdf_edge_ue_position():
    # v_0 = r_d degenerates the interior branch entirely
    sup = _sup(80.0, 80.0, 3.1)
    assert sup.z_m == pytest.approx(sup.z_l)
    assert _mass(80.0, 80.0, 3.1) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("r_d,v_0,dh", [
    (80.0, 10.0, 3.1), (80.0, 40.0, 3.1), (80.0, 79.0, 3.1),
    (80.0, 80.0, 3.1), (80.0, 1.0, 3.1), (10.0, 7.5, 0.3),
])
def test_pdf_against_mpmath_oracle(r_d, v_0, dh):
    # f_Z dz/dv against a 40-digit oracle on both pieces, from 1e-6 to
    # 1e-12 of v_m and of v_max included.  The oracle takes the float
    # endpoints z_l, z_m, z_p as exact and derives its own geometry from
    # them, h_m and h_p = sqrt(z^2 - z_l^2) at z_m and z_p, r_d and v_0
    # their half sum and half difference: with the rounded endpoints' true
    # values the law's identities break at 1e-16.  It forms the arccos
    # argument directly, at 40 digits.
    import mpmath

    vmap, law = _law(r_d, v_0, dh)
    sup, v_m, v_max = vmap.sup, vmap.v_m, vmap.v_max
    near = 10.0 ** -np.arange(6, 13)
    # the grid steps over v_m, where the weight is 0
    vs = np.concatenate([np.linspace(0.0, v_max, 42)[1:-1], v_max - near,
                         v_m + near, v_m - near if v_m > 0 else []])
    with mpmath.workdps(40):
        zl, zm, zp = (mpmath.mpf(x) for x in (sup.z_l, sup.z_m, sup.z_p))
        h_m = mpmath.sqrt(zm**2 - zl**2)
        h_p = mpmath.sqrt(zp**2 - zl**2)
        rd, v0 = (h_p + h_m) / 2, (h_p - h_m) / 2

        def oracle(v):
            v = mpmath.mpf(v)
            t = v - v_m
            if t < 0:
                z = zl + (zm - zl) * v**2
                return 2 * z / rd**2 * 2 * (zm - zl) * v
            z = zm + (zp - zm) * t**2 * (3 - 2 * t)
            h = mpmath.sqrt(z**2 - zl**2)
            cos = (h**2 + v0**2 - rd**2) / (2 * v0 * h)
            return (2 * z / (mpmath.pi * rd**2) * mpmath.acos(cos)
                    * 6 * (zp - zm) * t * (1 - t))

        want = np.array([float(oracle(v)) for v in vs])
    got = law(vs)[1]
    assert np.all(want > 0.0)
    assert np.abs(got / want - 1.0).max() <= 1e-14


@pytest.mark.parametrize("v_0", [0.0, 10.0, 79.9, 80.0])
def test_smoothing_map_is_monotone_and_inverted(v_0):
    # the law's z(v) runs from z_l to z_p, the Jacobian it carries is the
    # derivative of z(v) away from the kink at v_m, and v inverts z to a
    # few ulp of the support in z
    vmap, law = _law(80.0, v_0, 3.1)
    sup = vmap.sup
    assert vmap.v_max == 1.0 + (0.0 < v_0 < 80.0)
    v = np.linspace(0.0, vmap.v_max, 2001)
    z, w = law(v)
    span = sup.z_p - sup.z_l
    assert z[0] == sup.z_l and z[-1] == pytest.approx(sup.z_p, rel=1e-15)
    assert np.all(np.diff(z) > 0.0) and np.all(w >= 0.0)
    h = 1e-6
    smooth = np.abs(v - vmap.v_m) > 2 * h
    smooth[[0, -1]] = False
    diff = (law(v + h)[0] - law(v - h)[0]) / (2 * h)
    # the Jacobian from the law's weight over the z form of f_Z, where the
    # latter keeps its digits
    fz = f_z(z, sup, v_0, 80.0)
    ok = smooth & (fz > 1e-3 * fz.max())
    assert np.allclose(w[ok] / fz[ok], diff[ok], rtol=1e-6, atol=1e-6 * span)
    assert (np.abs(law(vmap.v(z))[0] - z).max()
            <= 4 * np.finfo(float).eps * span)
    assert vmap.v(sup.z_l - 1.0) == 0.0 and vmap.v(math.inf) == vmap.v_max
    assert math.isnan(vmap.v(math.nan))


@pytest.mark.parametrize("v_0", [0.0, 10.0, 40.0, 80.0])
def test_smoothing_map_removes_square_root_endpoints(v_0):
    # the LOS-weighted distance law has square-root endpoints at z_l, and off
    # centre at z_m and z_p: in z they take many bisection sweeps, in v few
    vmap, law = _law(80.0, v_0, 3.1)
    sup = vmap.sup
    sweeps = {"z": 0, "v": 0}

    def in_z(z):
        sweeps["z"] += 1
        return f_z(z, sup, v_0, 80.0) * kappa_los(z, 0.3, 3.1)

    def in_v(v):
        sweeps["v"] += 1
        z, w = law(v)
        return w * kappa_los(z, 0.3, 3.1)

    by_z = integrate(in_z, sup.z_l, sup.z_p,
                     Quadrature(1e-10, 1e-14, breakpoints=(sup.z_m,))).value
    by_v = integrate(in_v, 0.0, vmap.v_max,
                     Quadrature(1e-10, 1e-14, breakpoints=(vmap.v_m,))).value
    assert by_v == pytest.approx(by_z, rel=1e-10, abs=0.0)
    assert sweeps["v"] <= 5 and sweeps["z"] >= 3 * sweeps["v"]


def test_sample_counts_and_marking(table3):
    # the THz APs are the first n_thz columns, so LOS marks come for those
    # only: dist is (n, N_A) and is_los (n, n_thz), also for an empty tier
    n = 200
    for delta in (0.0, 0.5, 1.0):
        cfg = with_updates(table3, delta_T=delta)
        n_a, n_thz = cfg.geometry.N_A, cfg.geometry.n_thz
        dist, is_los = sample_deployment_arrays(cfg, np.random.default_rng(8), n)
        assert dist.shape == (n, n_a)
        assert is_los.shape == (n, n_thz) and is_los.dtype == bool
    # without blockers every THz AP is marked LOS
    clear = with_updates(table3, lambda_B=0.0)
    _, is_los = sample_deployment_arrays(clear, np.random.default_rng(3), 50)
    assert is_los.shape == (50, clear.geometry.n_thz)
    assert is_los.all()


def test_sampling_deterministic(table3):
    a = sample_deployment_arrays(table3, np.random.default_rng(7), 20)
    b = sample_deployment_arrays(table3, np.random.default_rng(7), 20)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_distance_distribution_ks(table3):
    # the sampled AP-UE distances follow distance_pdf: Kolmogorov-Smirnov
    # against its CDF, 1 - (tail integral in v), centred and off centre
    from scipy.stats import kstest

    for v_0 in (0.0, 40.0):
        cfg = with_updates(table3, v_0=v_0)
        dist, _ = sample_deployment_arrays(cfg, np.random.default_rng(3), 5000)
        assert dist.size == 100_000
        vmap = SmoothingMap(support(cfg))
        tail = TailIntegral(
            lambda v: distance_pdf(v, vmap, v_0, cfg.geometry.r_d)[1],
            0.0, vmap.v_max, Quadrature(rel_tol=1e-10, abs_tol=1e-13,
                                        breakpoints=(vmap.v_m,)))
        assert kstest(dist.ravel(),
                      lambda z: 1.0 - tail(vmap.v(z))).pvalue > 1e-3, v_0


def test_all_points_inside_disk(table3):
    # every sampled distance lies in the support [z_l, z_p] of the distance
    # law, also with the APs nearly coplanar with the UE
    for updates in ({"v_0": 0.0}, {"v_0": 40.0}, {"v_0": 40.0, "h_A": 1.4000001}):
        cfg = with_updates(table3, **updates)
        dist, _ = sample_deployment_arrays(cfg, np.random.default_rng(4), 200)
        sup = support(cfg)
        assert np.all(dist >= sup.z_l - 1e-12)
        assert np.all(dist <= sup.z_p + 1e-12)
