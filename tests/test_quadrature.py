import math
import re
import warnings

import numpy as np
import pytest

from hexnet import with_updates
from hexnet.analytic import AnalyticEngine
from hexnet.errors import (
    ConfigError,
    DomainError,
    MaxDepthExceeded,
    NonFiniteEstimate,
)
from hexnet.numerics.quadrature import (
    Quadrature,
    TailIntegral,
    integrate,
    integrate_semiinfinite,
)


def test_polynomial_exact():
    res = integrate(lambda x: x**2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.error <= 1e-10


def test_empty_interval():
    assert integrate(lambda x: x, 2.0, 2.0).value == 0.0


def test_honest_error_estimates():
    cases = [
        (lambda x: x**5 - 2 * x, 0.0, 2.0, 2**6 / 6 - 4.0),
        (np.exp, 0.0, 3.0, math.e**3 - 1.0),
        (lambda x: 1.0 / (1.0 + 3.0 / x), 1.0, 2.0, 1.0 - 3 * math.log(5.0 / 4.0)),
        (lambda x: np.exp(-x) / (1 + x), 0.0, 20.0, 0.5963473623231942),
    ]
    for f, a, b, exact in cases:
        res = integrate(f, a, b, Quadrature(rel_tol=1e-9, abs_tol=1e-13))
        assert abs(res.value - exact) <= 2.0 * res.error


def test_declared_breakpoint_jump_converges():
    cut = 1.0 / math.pi
    f = lambda x: np.where(x < cut, 1.0, 0.0)
    res = integrate(f, 0.0, 1.0, Quadrature(rel_tol=1e-12, abs_tol=1e-14,
                                            breakpoints=(cut,)))
    assert res.value == pytest.approx(cut, rel=1e-12)


def test_undeclared_jump_converges_honestly():
    # halving toward an undeclared jump at 1/pi meets the tolerance long
    # before the panel holding it reaches the 64-ulp minimum width, and the
    # claimed error covers the true one
    cut = 1.0 / math.pi
    f = lambda x: np.where(x < cut, 1.0, 0.0)
    q = Quadrature(rel_tol=1e-13, abs_tol=1e-16)
    res = integrate(f, 0.0, 1.0, q)
    assert abs(res.value - cut) <= res.error
    tail = TailIntegral(f, 0.0, 1.0, q)
    assert abs(tail.total - cut) <= tail.error


def test_vector_valued_integrand():
    f = lambda x: np.stack([x, x**2, np.sin(x)], axis=1)
    res = integrate(f, 0.0, 1.0, Quadrature(rel_tol=1e-12))
    assert res.value == pytest.approx([0.5, 1 / 3, 1 - math.cos(1.0)], rel=1e-12)


def test_semiinfinite_known_integrals():
    # integrand f(t)/(1+t): with f = e^-t (t+1) this is int e^-t = 1
    assert integrate_semiinfinite(
        lambda t: np.exp(-t) * (t + 1.0)).value == pytest.approx(1.0, rel=1e-9)
    # f = 1/(t+1): int (1+t)^-2 = 1
    assert integrate_semiinfinite(
        lambda t: 1.0 / (t + 1.0)).value == pytest.approx(1.0, rel=1e-9)


def test_semiinfinite_matches_large_truncation():
    # rate-style integrand: smooth, exponentially decaying tail
    a = 0.37
    f = lambda t: np.exp(-a * t)
    full = integrate_semiinfinite(f, Quadrature(rel_tol=1e-10)).value
    trunc = integrate(lambda t: np.exp(-a * t) / (1 + t), 0.0, 1e6,
                      Quadrature(rel_tol=1e-10, abs_tol=1e-14,
                                 breakpoints=tuple(np.geomspace(1e-3, 1e5, 25)))).value
    assert full == pytest.approx(trunc, rel=1e-6)


def test_semiinfinite_step_ccdf_gives_log():
    # a deterministic-SINR tail: P[SINR > t] = 1{t < s} integrates to log(1+s)
    snr = 37.5
    res = integrate_semiinfinite(lambda t: (t < snr).astype(float),
                                 Quadrature(rel_tol=1e-11, abs_tol=1e-14,
                                            breakpoints=(snr,)))
    assert res.value == pytest.approx(math.log1p(snr), rel=1e-10)
    # scaled by W/ln2 this is W log2(1 + SINR)
    w = 4e7
    assert w / math.log(2) * res.value == pytest.approx(w * math.log2(1 + snr), rel=1e-10)


@pytest.mark.parametrize("t_break", [1e14, 1e16, 1e300])
def test_semiinfinite_breakpoint_at_u_one_raises(t_break):
    # t/(1+t) rounds to 1, or so close to it that the panel up to 1 has a
    # node at u = 1: a DomainError naming the breakpoint, before f is called
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(-t)

    with pytest.raises(DomainError, match=re.escape(repr(t_break))):
        integrate_semiinfinite(f, Quadrature(breakpoints=(1.0, t_break)))
    assert not calls
    # a breakpoint whose panel stays below u = 1 is accepted
    assert integrate_semiinfinite(
        f, Quadrature(breakpoints=(1e13,))).value > 0.0


def test_semiinfinite_refinement_toward_u_one_raises():
    # the panel from the breakpoint 1e13 up to u = 1 has no node at 1, but f
    # decays on the scale t ~ 1e15, so refinement halves it toward u = 1
    # until a node lands there: a DomainError, and f never sees t = inf
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(-t / 1e15)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="node at u = 1"):
            integrate_semiinfinite(f, Quadrature(breakpoints=(1e13,)))
    assert len(calls) > 1
    assert all(np.isfinite(t).all() for t in calls)


def test_tail_integral_matches_direct():
    f = lambda x: np.exp(-0.3 * x) * (1.3 + np.sin(x))
    tail = TailIntegral(f, 1.0, 30.0, Quadrature(rel_tol=1e-12, abs_tol=1e-15))
    rng = np.random.default_rng(6)
    for x in rng.uniform(1.0, 30.0, size=25):
        direct = integrate(f, x, 30.0, Quadrature(rel_tol=1e-13, abs_tol=1e-16)).value
        assert tail(float(x)) == pytest.approx(direct, abs=1e-11)
    assert tail(0.5) == tail.total
    assert tail(31.0) == 0.0


def test_final_panels_restart_converged():
    # the result's breakpoints are the interior edges of its final panels:
    # an integral started on them converges in its first sweep, to the same
    # value
    f = lambda x: 1.0 / (1e-3 + x * x)
    q = Quadrature(rel_tol=1e-10, abs_tol=1e-14)
    res = integrate(f, -1.0, 2.0, q)
    edges = res.breakpoints
    assert len(edges) > 10 and list(edges) == sorted(edges)
    assert -1.0 < edges[0] and edges[-1] < 2.0
    sweeps = []

    def counted(x):
        sweeps.append(x.size)
        return f(x)

    again = integrate(counted, -1.0, 2.0, Quadrature(1e-10, 1e-14,
                                                      breakpoints=edges))
    assert sweeps == [15 * (len(edges) + 1)]
    assert again.value == pytest.approx(res.value, rel=1e-14)
    assert again.breakpoints == edges
    assert integrate(f, 1.0, 1.0).breakpoints == ()


def test_tail_integral_columns_meet_own_tolerance():
    # trailing axes share panels, and each component meets rel_tol against
    # its own total: a wiggly column 1e-12 times smaller than a smooth one,
    # which a tolerance scaled by the largest total would leave unrefined,
    # and a column that is identically 0 and needs only abs_tol
    def f(x):
        wiggly = 1e-12 * np.exp(-0.1 * x) * (1.3 + np.sin(3.0 * x))
        return np.stack([np.exp(-0.3 * x), wiggly, np.zeros_like(x)],
                        axis=1).reshape(x.size, 3, 1)

    rel_tol = 1e-10
    tail = TailIntegral(f, 1.0, 30.0, Quadrature(rel_tol=rel_tol,
                                                 abs_tol=1e-30))
    assert tail.total.shape == (3, 1) and tail.total[2, 0] == 0.0
    rng = np.random.default_rng(6)
    xs = rng.uniform(1.0, 30.0, size=25)
    got = tail(xs)
    assert got.shape == (25, 3, 1)
    assert np.all(got[:, 2] == 0.0)
    for k in (0, 1):
        col = lambda x, k=k: f(x)[:, k, 0]
        for x, value in zip(xs, got[:, k, 0]):
            direct = integrate(col, x, 30.0,
                               Quadrature(rel_tol=1e-13, abs_tol=0.0)).value
            assert abs(value - direct) <= rel_tol * tail.total[k, 0], (k, x)
    assert np.array_equal(tail(float(xs[0])), got[0])
    assert np.array_equal(tail(0.5), tail.total) and np.all(tail(31.0) == 0.0)


def test_tail_integral_vectorized():
    f = lambda x: 2.0 * x
    tail = TailIntegral(f, 0.0, 1.0)
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    assert tail(xs) == pytest.approx(1.0 - xs**2, abs=1e-13)


def test_tail_integral_raises_when_tolerance_out_of_reach():
    # an undeclared jump far from the origin: the panel holding it reaches the
    # 64-ulp minimum width with its error still above the tolerance.  Split
    # further, all 15 Kronrod nodes would round onto the panel's two ends,
    # and the estimate would claim an error far below its true one.
    a = 1e6
    cut = a + 1.0 / math.pi
    f = lambda x: np.where(x < cut, 1.0, 0.0)
    q = Quadrature(rel_tol=1e-13, abs_tol=0.0)
    for driver in (integrate, TailIntegral):
        with pytest.raises(MaxDepthExceeded) as info:
            driver(f, a, a + 1.0, q)
        lo, hi = info.value.panel
        assert lo <= cut <= hi
        assert hi - lo <= 64.0 * np.finfo(float).eps * (a + 1.0)


def test_tolerance_below_error_floor_rejected():
    # the error estimates never fall below 50 eps of |f|'s integral, so a
    # tighter rel_tol is refused when the Quadrature is built, before any
    # refinement could double the panels without end
    floor = 50.0 * np.finfo(float).eps
    Quadrature(rel_tol=floor)
    for rel_tol in (0.5 * floor, 1e-15, 0.0, math.nan):
        with pytest.raises(ConfigError, match="error floor"):
            Quadrature(rel_tol=rel_tol, abs_tol=0.0)


def test_nan_integrand_raises_typed_error_naming_the_panel():
    # NaN above 0.6: the first sweep's panel [0.5, 1] carries it
    def f(x):
        return np.where(x > 0.6, np.nan, x)

    q = Quadrature(breakpoints=(0.5,))
    with pytest.raises(NonFiniteEstimate) as info:
        integrate(f, 0.0, 1.0, q)
    assert info.value.panel == (0.5, 1.0)
    assert math.isnan(info.value.error)
    with pytest.raises(NonFiniteEstimate):
        integrate_semiinfinite(lambda t: np.full(t.shape, np.nan))
    with pytest.raises(NonFiniteEstimate):
        TailIntegral(f, 0.0, 1.0)


def test_tail_integral_nan_lower_limit_raises():
    tail = TailIntegral(lambda x: np.exp(-x), 0.0, 5.0)
    with pytest.raises(DomainError, match="NaN"):
        tail(math.nan)
    with pytest.raises(DomainError, match="NaN"):
        tail(np.array([math.nan, 5.0]))


def test_tail_integral_values_independent_of_batch():
    # each lower limit's partial panel is summed on its own: a value in an
    # array equals the value looked up alone, bit for bit
    tail = TailIntegral(lambda x: np.exp(-x) * np.sqrt(x), 0.0, 5.0)
    xs = np.random.default_rng(3).uniform(-0.5, 5.5, 2000)
    got = tail(xs)
    assert all(got[i] == tail(float(x)) for i, x in enumerate(xs))


def _engine_tables(table3):
    """The analytic engine's tail tables, centred and at v_0=10: the
    distance-law tail and the rate's bracket table of each class."""
    for cfg in (table3, with_updates(table3, v_0=10.0)):
        eng = AnalyticEngine(cfg, rel_tol=1e-4)
        yield eng.tail
        for c in "LNR":
            yield eng._rate_bracket(c)


def _lower_limits(tail):
    """Limits spread over (a, b), and 1e-12 to 1e-3 below b."""
    return np.concatenate([np.linspace(tail.a, tail.b, 402)[1:-1],
                           tail.b - np.logspace(-12, -3, 28)])


def test_tail_lookups_match_fresh_rule_on_engine_tables(table3):
    # a lookup reads the build's interpolant, or falls back to a fresh
    # Kronrod rule on the partial panel; either way it agrees with that rule
    # within 1e-12 of the value, per column, also where the tail vanishes
    # toward b (off centre like (b - v)^3)
    for tail in _engine_tables(table3):
        xs = _lower_limits(tail)
        got = tail(xs).reshape(xs.size, -1)
        fresh = tail._fresh(xs, np.searchsorted(tail._ends, xs, side="right"))
        assert np.all(np.abs(got - fresh) <= 1e-12 * np.abs(fresh))


def test_tail_masses_positive_wherever_integrand_is(table3):
    for tail in _engine_tables(table3):
        xs = _lower_limits(tail)
        got = tail(xs).reshape(xs.size, -1)
        f = tail._f(xs).reshape(xs.size, -1)
        assert np.all(got[f > 0.0] > 0.0) and np.all(got >= 0.0)


def test_tail_interior_lookups_make_no_integrand_call(table3):
    calls = []
    g = lambda x: np.exp(-0.3 * x) * (1.3 + np.sin(x))
    tail = TailIntegral(lambda x: calls.append(x.size) or g(x), 1.0, 30.0,
                        Quadrature(rel_tol=1e-12, abs_tol=1e-15))
    calls.clear()
    xs = np.linspace(1.0, 29.0, 300)
    got = tail(xs)
    assert calls == []
    for x, value in zip(xs[::30], got[::30]):
        direct = integrate(g, x, 30.0, Quadrature(1e-13, 1e-16)).value
        assert value == pytest.approx(direct, rel=1e-11)
    # on the engine's tables too; where the tail vanishes toward b, a
    # lookup falls back to the fresh rule, which calls the integrand
    for tail in _engine_tables(table3):
        tail._f = lambda v, f=tail._f: calls.append(v.size) or f(v)
        tail(np.linspace(tail.a, 0.9 * tail.b, 200))
        assert calls == []
    tail(tail.b - 1e-9)
    assert calls == [15]
