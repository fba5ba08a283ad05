import math

import numpy as np
import pytest

from hexnet import default_config, with_updates
from hexnet.errors import DomainError
from hexnet.geometry import (
    DistanceSupport,
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


def test_support_endpoints():
    sup = _sup(80.0, 40.0, 3.1)
    assert sup.z_l == 3.1
    assert sup.z_m == pytest.approx(math.hypot(40, 3.1))
    assert sup.z_p == pytest.approx(math.hypot(120, 3.1))
    centered = _sup(80.0, 0.0, 3.1)
    assert centered.z_m == centered.z_p


def test_pdf_central_branch_value():
    sup = _sup(80.0, 0.0, 3.1)
    assert distance_pdf(10.0, sup, 0.0, 80.0) == pytest.approx(0.003125, rel=1e-12)


def test_pdf_outside_support():
    sup = _sup(80.0, 0.0, 3.1)
    assert distance_pdf(sup.z_l - 0.01, sup, 0.0, 80.0) == 0.0
    assert distance_pdf(sup.z_p + 0.01, sup, 0.0, 80.0) == 0.0


def test_pdf_branch_continuity():
    sup = _sup(80.0, 40.0, 3.1)
    # at z_m the edge branch (clamped arccos) must reproduce the inner form
    inner_form = 2.0 * sup.z_m / 80.0**2
    assert distance_pdf(sup.z_m, sup, 40.0, 80.0) == pytest.approx(
        inner_form, rel=1e-8)
    lo = distance_pdf(sup.z_m * (1 - 1e-9), sup, 40.0, 80.0)
    hi = distance_pdf(sup.z_m * (1 + 1e-9), sup, 40.0, 80.0)
    assert hi == pytest.approx(lo, rel=1e-3)  # physical continuity either side


def test_pdf_normalizes_at_reference_point():
    sup = _sup(80.0, 40.0, 3.1)
    q = Quadrature(rel_tol=1e-10, abs_tol=1e-13, breakpoints=(sup.z_m,))
    val = integrate(lambda z: distance_pdf(z, sup, 40.0, 80.0),
                    sup.z_l, sup.z_p, q).value
    assert val == pytest.approx(1.0, abs=1e-8)


def test_pdf_normalizes_on_random_scenarios():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r_d = rng.uniform(10.0, 150.0)
        v_0 = rng.uniform(0.0, r_d)
        dh = rng.uniform(0.3, 6.0)
        sup = _sup(r_d, v_0, dh)
        q = Quadrature(rel_tol=1e-10, abs_tol=1e-13, breakpoints=(sup.z_m,))
        val = integrate(lambda z: distance_pdf(z, sup, v_0, r_d),
                        sup.z_l, sup.z_p, q).value
        assert val == pytest.approx(1.0, abs=1e-8)


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

    sup = _sup(80.0, 40.0, 3.1)
    q = Quadrature(rel_tol=1e-11, abs_tol=1e-14, breakpoints=(sup.z_m,))
    for z in (5.0, 20.0, 41.0, 60.0, 90.0, 115.0):
        num = integrate(lambda t: distance_pdf(t, sup, 40.0, 80.0),
                        sup.z_l, z, q).value
        assert num == pytest.approx(lens_cdf(z, 80.0, 40.0, 3.1), abs=1e-9)


def test_pdf_edge_ue_position():
    # v_0 = r_d degenerates the interior branch entirely
    sup = _sup(80.0, 80.0, 3.1)
    assert sup.z_m == pytest.approx(sup.z_l)
    q = Quadrature(rel_tol=1e-10, abs_tol=1e-13, breakpoints=(sup.z_m,))
    val = integrate(lambda z: distance_pdf(z, sup, 80.0, 80.0),
                    sup.z_l, sup.z_p, q).value
    assert val == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("v_0", [0.0, 10.0, 79.9, 80.0])
def test_smoothing_map_is_monotone_and_inverted(v_0):
    # z(v) runs from z_l to z_p, dz/dv is its derivative away from the kink
    # at v_m, and v inverts z to a few ulp of the support in z
    sup = _sup(80.0, v_0, 3.1)
    vmap = SmoothingMap(sup)
    assert vmap.v_max == 1.0 + (0.0 < v_0 < 80.0)
    v = np.linspace(0.0, vmap.v_max, 2001)
    z, jac = vmap.z(v)
    span = sup.z_p - sup.z_l
    assert z[0] == sup.z_l and z[-1] == pytest.approx(sup.z_p, rel=1e-15)
    assert np.all(np.diff(z) > 0.0) and np.all(jac >= 0.0)
    h = 1e-6
    smooth = np.abs(v - vmap.v_m) > 2 * h
    smooth[[0, -1]] = False
    diff = (vmap.z(v + h)[0] - vmap.z(v - h)[0]) / (2 * h)
    assert np.allclose(jac[smooth], diff[smooth], rtol=0.0, atol=1e-6 * span)
    assert np.abs(vmap.z(vmap.v(z))[0] - z).max() <= 4 * np.finfo(float).eps * span
    assert vmap.v(sup.z_l - 1.0) == 0.0 and vmap.v(math.inf) == vmap.v_max
    assert math.isnan(vmap.v(math.nan))


@pytest.mark.parametrize("v_0", [0.0, 10.0, 40.0, 80.0])
def test_smoothing_map_removes_square_root_endpoints(v_0):
    # the LOS-weighted distance law has square-root endpoints at z_l, and off
    # centre at z_m and z_p: in z they take many bisection sweeps, in v few
    sup = _sup(80.0, v_0, 3.1)
    vmap = SmoothingMap(sup)

    def f(z):
        return distance_pdf(z, sup, v_0, 80.0) * kappa_los(z, 0.3, 3.1)

    sweeps = {"z": 0, "v": 0}

    def in_z(z):
        sweeps["z"] += 1
        return f(z)

    def in_v(v):
        sweeps["v"] += 1
        z, jac = vmap.z(v)
        return f(z) * jac

    by_z = integrate(in_z, sup.z_l, sup.z_p,
                     Quadrature(1e-10, 1e-14, breakpoints=(sup.z_m,))).value
    by_v = integrate(in_v, 0.0, vmap.v_max,
                     Quadrature(1e-10, 1e-14, breakpoints=(vmap.v_m,))).value
    assert by_v == pytest.approx(by_z, rel=1e-10, abs=0.0)
    assert sweeps["v"] <= 5 and sweeps["z"] >= 3 * sweeps["v"]


def test_pdf_domain_error_on_bad_arccos():
    sup = DistanceSupport(z_l=3.1, z_m=10.0, z_p=50.0)  # inconsistent on purpose
    with pytest.raises(DomainError):
        distance_pdf(20.0, sup, 5.0, 8.0)


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
    # against its CDF, 1 - (tail integral), centred and off centre
    from scipy.stats import kstest

    for v_0 in (0.0, 40.0):
        cfg = with_updates(table3, v_0=v_0)
        dist, _ = sample_deployment_arrays(cfg, np.random.default_rng(3), 5000)
        assert dist.size == 100_000
        sup = support(cfg)
        tail = TailIntegral(lambda z: distance_pdf(z, sup, v_0, cfg.geometry.r_d),
                            sup.z_l, sup.z_p,
                            Quadrature(rel_tol=1e-10, abs_tol=1e-13,
                                       breakpoints=(sup.z_m,)))
        assert kstest(dist.ravel(), lambda z: 1.0 - tail(z)).pvalue > 1e-3, v_0


def test_all_points_inside_disk(table3):
    # every sampled distance lies in the support [z_l, z_p] of the distance
    # law, also with the APs nearly coplanar with the UE
    for updates in ({"v_0": 0.0}, {"v_0": 40.0}, {"v_0": 40.0, "h_A": 1.4000001}):
        cfg = with_updates(table3, **updates)
        dist, _ = sample_deployment_arrays(cfg, np.random.default_rng(4), 200)
        sup = support(cfg)
        assert np.all(dist >= sup.z_l - 1e-12)
        assert np.all(dist <= sup.z_p + 1e-12)
