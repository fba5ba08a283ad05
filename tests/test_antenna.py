import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hexnet.antenna import (
    GainPmf,
    desired_gain_pmf,
    half_normal_cdf,
    interferer_gain_pmf,
    mean_desired_gain,
    sample_gain,
)
from hexnet.params import AntennaParams


def _ant(sig_t=0.0, sig_u=0.0, phi_t=math.radians(10), phi_u=math.radians(33)):
    return AntennaParams(
        g_T_max=10**2.5, g_T_min=0.1, g_U_max=10**1.5, g_U_min=0.1,
        phi_T=phi_t, phi_U=phi_u, sigma_eps_T=sig_t, sigma_eps_U=sig_u,
    )


def test_half_normal_cdf():
    assert half_normal_cdf(0.1, 0.0) == 1.0
    assert half_normal_cdf(0.0, 0.0) == 1.0
    sigma = 0.3
    assert half_normal_cdf(sigma, sigma) == pytest.approx(0.6826894921370859, rel=1e-12)
    assert half_normal_cdf(100.0, 0.1) == pytest.approx(1.0)


def test_desired_pmf_error_free():
    pmf = desired_gain_pmf(_ant())
    assert pmf.probs == (1.0, 0.0, 0.0, 0.0)
    assert pmf.gains[0] == pytest.approx(1e4, rel=1e-12)
    assert mean_desired_gain(_ant()) == pytest.approx(1e4, rel=1e-12)


def test_desired_pmf_symmetric_split():
    # choose sigma so each erf factor is exactly 1/2
    from scipy.special import erfinv
    phi = math.radians(20)
    sigma = phi / 2 / (math.sqrt(2) * erfinv(0.5))
    pmf = desired_gain_pmf(_ant(sig_t=sigma, sig_u=sigma, phi_t=phi, phi_u=phi))
    assert pmf.probs == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_interferer_pmf_values():
    pmf = interferer_gain_pmf(_ant())
    v_t, v_u = 10 / 360, 33 / 360
    assert pmf.probs[0] == pytest.approx(v_t * v_u, rel=1e-12)
    assert pmf.probs[0] == pytest.approx(0.002546, abs=2e-6)
    omni = _ant(phi_t=2 * math.pi - 1e-12, phi_u=2 * math.pi - 1e-12)
    assert interferer_gain_pmf(omni).probs[0] == pytest.approx(1.0)


def test_mean_gain_monotone_in_error():
    vals = [mean_desired_gain(_ant(sig_t=s, sig_u=s))
            for s in (0.0, 0.05, 0.1, 0.3, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@given(st.floats(0.02, 6.2), st.floats(0.02, 6.2),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_pmfs_sum_to_one(phi_t, phi_u, sig_t, sig_u):
    ant = _ant(sig_t=sig_t, sig_u=sig_u, phi_t=phi_t, phi_u=phi_u)
    for pmf in (desired_gain_pmf(ant), interferer_gain_pmf(ant)):
        assert abs(sum(pmf.probs) - 1.0) <= 1e-12
        assert all(p >= 0 for p in pmf.probs)


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_main_lobe_probability_degrades(sig_a, sig_b):
    lo, hi = sorted((sig_a, sig_b))
    p_lo = desired_gain_pmf(_ant(sig_t=lo)).probs[0]
    p_hi = desired_gain_pmf(_ant(sig_t=hi)).probs[0]
    assert p_hi <= p_lo + 1e-12


def test_interferer_pmf_ignores_error():
    assert interferer_gain_pmf(_ant()) == interferer_gain_pmf(_ant(sig_t=0.7, sig_u=0.2))


def test_gain_pmf_validation():
    with pytest.raises(ValueError):
        GainPmf(gains=(1, 1, 1, 1), probs=(0.5, 0.5, 0.25, -0.25))
    with pytest.raises(ValueError):
        GainPmf(gains=(1, 1, 1, 1), probs=(0.5, 0.2, 0.2, 0.2))


def _draw(pmf, rng, shape):
    """``sample_gain`` into fresh arrays of ``shape``."""
    return sample_gain(pmf, rng, np.empty(shape), np.empty(shape, np.intp))


def test_sample_gain_degenerate_and_frequencies():
    rng = np.random.default_rng(5)
    degenerate = GainPmf(gains=(7.0, 1.0, 2.0, 3.0), probs=(1.0, 0.0, 0.0, 0.0))
    assert np.all(_draw(degenerate, rng, 50) == 7.0)
    pmf = interferer_gain_pmf(_ant())
    draws = _draw(pmf, rng, 1_000_000)
    freq = (draws == pmf.gains[0]).mean()
    assert freq == pytest.approx(pmf.probs[0], abs=2e-4)
    # all four frequencies within 3-sigma multinomial bounds
    for g, p in zip(pmf.gains, pmf.probs):
        f = (draws == g).mean() if pmf.gains.count(g) == 1 else None
        if f is not None:
            assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / draws.size) + 1e-9


def test_sample_gain_deterministic():
    pmf = interferer_gain_pmf(_ant())
    a = _draw(pmf, np.random.default_rng(9), 1000)
    b = _draw(pmf, np.random.default_rng(9), 1000)
    assert np.array_equal(a, b)


class _FixedUniforms:
    """A stand-in generator whose ``random`` writes given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[...] = self.u.reshape(out.shape)
        return out


@pytest.mark.parametrize("pmf, below_one", [
    (desired_gain_pmf(_ant()), False),             # sigma_eps = 0: (1, 0, 0, 0)
    (interferer_gain_pmf(_ant()), False),
    (GainPmf(gains=(4.0, 3.0, 2.0, 1.0), probs=(0.25, 0.0, 0.5, 0.25)), False),
    (GainPmf(gains=(4.0, 3.0, 2.0, 1.0), probs=(0.7, 0.1, 0.1, 0.1 - 5e-13)),
     True),
])
def test_sample_gain_matches_searchsorted(pmf, below_one):
    # every uniform maps to the atom an inverse-CDF search finds, also at and
    # next to the cumulative probabilities and beyond the last one
    cum = np.cumsum(pmf.probs)
    edges = [c for c in cum if c < 1.0]
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        np.random.default_rng(2).random(10_000)])
    u = u[u < 1.0]
    assert (cum[-1] < 1.0) == below_one
    want = np.asarray(pmf.gains)[
        np.minimum(np.searchsorted(cum, u, side="right"), 3)]
    assert np.array_equal(_draw(pmf, _FixedUniforms(u), u.size), want)
    shaped = _draw(pmf, _FixedUniforms(u[:6]), (2, 3))
    assert np.array_equal(shaped, want[:6].reshape(2, 3))
