import math

import numpy as np
import pytest

from hexnet import with_updates
from hexnet.errors import DomainError
from hexnet.geometry import (
    DistanceSupport,
    distance_pdf,
    sample_deployment_arrays,
    support,
)
from hexnet.numerics import Quadrature, integrate


def _sup(r_d, v_0, dh):
    return DistanceSupport.from_scenario(r_d, v_0, dh)


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


def test_pdf_domain_error_on_bad_arccos():
    sup = DistanceSupport(z_l=3.1, z_m=10.0, z_p=50.0)  # inconsistent on purpose
    with pytest.raises(DomainError):
        distance_pdf(20.0, sup, 5.0, 8.0)


def test_distance_to_ue(table3):
    # the sampler's 3-D distances to the UE at (v_0, 0, h_U)
    cfg = with_updates(table3, v_0=40.0)
    x, y, dist, _, _ = sample_deployment_arrays(cfg, np.random.default_rng(5), 50)
    expected = np.sqrt((x - 40.0) ** 2 + y**2 + 3.1**2)
    assert dist == pytest.approx(expected, rel=1e-12)
    flat = with_updates(table3, h_A=1.4000001, v_0=0.0)  # nearly coplanar
    x, y, dist, _, _ = sample_deployment_arrays(flat, np.random.default_rng(6), 50)
    assert dist == pytest.approx(np.hypot(x, y), abs=1e-5)


def test_sample_counts_and_marking(table3):
    # every row holds exactly n_thz THz APs, and each AP index is THz with
    # probability n_thz / N_A (4-sigma binomial bound per index)
    n = 20_000
    for delta in (0.0, 0.5, 1.0):
        cfg = with_updates(table3, delta_T=delta)
        n_a, n_thz = cfg.geometry.N_A, cfg.geometry.n_thz
        _, _, _, is_thz, _ = sample_deployment_arrays(
            cfg, np.random.default_rng(8), n)
        assert is_thz.shape == (n, n_a)
        assert np.all(is_thz.sum(axis=1) == n_thz)
        p = n_thz / n_a
        freq = is_thz.mean(axis=0)
        assert np.all(np.abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / n))
    # without blockers every AP is marked LOS
    clear = with_updates(table3, lambda_B=0.0)
    _, _, _, _, is_los = sample_deployment_arrays(clear, np.random.default_rng(3), 50)
    assert is_los.all()


def test_sampling_deterministic(table3):
    a = sample_deployment_arrays(table3, np.random.default_rng(7), 20)
    b = sample_deployment_arrays(table3, np.random.default_rng(7), 20)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_radius_distribution_ks(table3):
    rng = np.random.default_rng(3)
    x, y, _, _, _ = sample_deployment_arrays(table3, rng, 5000)
    radii = np.sort(np.hypot(x, y).ravel())
    n = radii.size
    assert n == 100_000
    cdf = (radii / table3.geometry.r_d) ** 2
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.abs(emp_hi - cdf).max(), np.abs(cdf - emp_lo).max())
    assert ks < 0.01


def test_all_points_inside_disk(table3):
    x, y, dist, _, _ = sample_deployment_arrays(table3, np.random.default_rng(4), 200)
    assert np.all(np.hypot(x, y) <= table3.geometry.r_d + 1e-12)
    sup = support(table3)
    assert np.all(dist >= sup.z_l - 1e-12)
    assert np.all(dist <= sup.z_p + 1e-12)
