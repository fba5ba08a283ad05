"""Analytical pipeline: association probabilities, serving-distance laws,
interference Laplace transforms, coverage, and average rate.

Everything is driven by one distance density ``f_Z`` (module geometry), the
LOS/NLOS marking probabilities (module propagation), and the six exclusion
boundaries (module exclusion).  The three association events condition the
remaining APs to truncated i.i.d. distance laws, which turns every metric
into nested 1-D integrals; derivatives of the interference Laplace transforms
are carried through the quadrature as jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .antenna import desired_gain_pmf, interferer_gain_pmf, mean_desired_gain
from .errors import DegenerateEvent, NumericalInconsistency
from .exclusion import ExclusionRegions
from .geometry import distance_pdf, support
from .numerics.jets import Jet, affine_power
from .numerics.quadrature import (
    Quadrature,
    TailIntegral,
    integrate,
    integrate_semiinfinite,
)
from .params import NetworkConfig, derived_constants
from .propagation import kappa_los, kappa_nlos

EVENTS = ("L", "N", "R")

#: association probability below which conditional laws are undefined
DEGENERATE_EVENT_TOL = 1e-12

#: tolerated numerical spill of a probability outside [0, 1]
PROBABILITY_SPILL_TOL = 1e-6

#: element budget of the inner kernel's widest temporary in its first sweep:
#: 15 u-nodes x serving distances x pieces x expansion points x interferer
#: gain atoms x (jet order + 1).  Longer vectors of serving distances are
#: sliced; a refinement sweep on k panels is 2k times as wide.
_INNER_ELEMENTS = 2**13


@dataclass(frozen=True)
class TierMetrics:
    """One scalar per association event (LOS THz, NLOS THz, RF)."""

    los: float
    nlos: float
    rf: float

    def get(self, event: str):
        return {"L": self.los, "N": self.nlos, "R": self.rf}[event]

    @property
    def total(self):
        return self.los + self.nlos + self.rf


@dataclass(frozen=True)
class CoverageReport:
    assoc: TierMetrics
    cond_coverage: TierMetrics
    total_coverage: float
    cond_rate: TierMetrics      # bits/s
    total_rate: float           # bits/s


class AnalyticEngine:
    """Per-config caches and the quadrature pipeline.

    Each association event (LOS THz, NLOS THz, RF) is one table entry in
    ``_ev``: the serving tier's AP count and blockage law (``kappa``, None
    for RF), the serving link's ``m``, ``alpha``, ``amp``, ``k_a``,
    ``sigma2`` and ``bw``, the desired and interferer gain atoms, and two
    competing tiers, RF first, then THz.  A tier is ``(count, terms)``, one
    term per link class: ``(boundary key, tail mass, segment parameters)``,
    with key None for the identity or "xy" for ``ExclusionRegions.e_xy``.
    The event's density is the serving density times each tier's summed
    tail mass beyond its boundaries to the power ``count`` (``_weight``);
    the keys give the panel breakpoints (``_event_breakpoints``); and the
    serving tier, ``tiers[own]``, gives the interferer segments of the
    Laplace transform (``_laplace_coeffs``).

    The outer expectations over the serving distance x run at ``rel_tol``.
    The inner interference integrals run 10x tighter (``q_inner``), batched:
    one ``integrate`` per outer sweep and interferer segment serves the
    sweep's whole vector of x.  Each x's range [lo(x), z_p] is cut at
    ``_inner_breaks``, its pieces are mapped onto shared panels in u in
    [0, 1] (affinely; by a cubic on the off-centre arccos branch of the
    distance law), and its column is divided by the segment's interferer
    mass over the range (a tail lookup), so the max-norm tolerance applies
    per x.  The x are sliced so that the kernel's widest temporary stays
    within ``_INNER_ELEMENTS`` elements in the first sweep.  The rate
    level's threshold integral, between the two, runs at
    ``max(10 * rel_tol, 1e-6)``: looser than the outer level, not tighter.
    The tail caches run at 1e-11, effectively exact for the outer loops.
    """

    def __init__(self, cfg: NetworkConfig, rel_tol: float = 1e-7):
        if cfg.radio.B_T <= 0.0:
            raise ValueError(
                "the analytic pipeline needs B_T > 0; B_T = 0 association "
                "semantics are only defined for the Monte-Carlo engine"
            )
        self.cfg = cfg
        g, r = cfg.geometry, cfg.radio
        self.sup = support(cfg)
        self.der = derived_constants(cfg)
        self.n_thz = g.n_thz
        self.n_rf = g.n_rf
        self.mean_gain = mean_desired_gain(cfg.antenna)
        self.pmf_desired = desired_gain_pmf(cfg.antenna)
        self.pmf_interf = interferer_gain_pmf(cfg.antenna)
        self.excl = ExclusionRegions(self.sup.z_l, r, self.mean_gain)

        self.q_outer = Quadrature(rel_tol=rel_tol, abs_tol=1e-11)
        self.q_inner = Quadrature(rel_tol=rel_tol * 0.1, abs_tol=1e-13)
        # pre-split every inner range: the MGF kernels turn over close to the
        # lower limit, and seeding pieces there saves refinement sweeps
        zl, zp = self.sup.z_l, self.sup.z_p
        seeds = (zl + (zp - zl) * f for f in (0.03, 0.12, 0.3, 0.6))
        self._inner_breaks = np.array(
            sorted({p for p in (self.sup.z_m, *seeds) if zl < p < zp}))
        self.q_rate_t = Quadrature(rel_tol=max(10 * rel_tol, 1e-6), abs_tol=1e-9)
        q_tail = Quadrature(rel_tol=1e-11, abs_tol=1e-15,
                            breakpoints=(self.sup.z_m,))

        self._fz = lambda z: distance_pdf(z, self.sup, g.v_0, g.r_d)
        self._kl = lambda z: kappa_los(z, self.der.beta, self.der.delta_h)
        self._kn = lambda z: kappa_nlos(z, self.der.beta, self.der.delta_h)
        self.S1 = TailIntegral(self._fz, self.sup.z_l, self.sup.z_p, q_tail)
        self.SL = TailIntegral(lambda z: self._fz(z) * self._kl(z),
                               self.sup.z_l, self.sup.z_p, q_tail)
        self.SN = TailIntegral(lambda z: self._fz(z) * self._kn(z),
                               self.sup.z_l, self.sup.z_p, q_tail)

        amp_thz = r.P_T * r.gamma_T
        amp_rf = r.P_R * r.gamma_R
        # gain atoms of probability zero contribute nothing to the outer sums
        des_g = np.asarray(self.pmf_desired.gains)
        des_p = np.asarray(self.pmf_desired.probs)
        des_g, des_p = des_g[des_p > 0], des_p[des_p > 0]
        int_g = np.asarray(self.pmf_interf.gains)
        int_p = np.asarray(self.pmf_interf.probs)
        int_g, int_p = int_g[int_p > 0], int_p[int_p > 0]
        one = np.asarray([1.0])
        # per link class: its tail mass and its interferer segment parameters
        # (kappa fn, amplitude, absorption, alpha, m)
        tail = {"L": self.SL, "N": self.SN, "R": self.S1}
        seg = {"L": (self._kl, amp_thz, r.k_a, r.alpha_L, r.m_L),
               "N": (self._kn, amp_thz, r.k_a, r.alpha_N, r.m_N),
               "R": (None, amp_rf, 0.0, r.alpha_R, 1)}

        def tier(event, count, classes):
            # (count, terms); a term's boundary key is None for the identity,
            # else "xy" for ExclusionRegions.e_xy, x the serving class
            return count, tuple(
                (None if c == event else (event + c).lower(), tail[c], seg[c])
                for c in classes)

        thz = dict(amp=amp_thz, k_a=r.k_a, sigma2=r.sigma2_T, bw=r.W_T,
                   gains=des_g, probs=des_p, int_gains=int_g, int_probs=int_p)
        self._ev = {
            "L": dict(thz, count=self.n_thz, kappa=self._kl, m=r.m_L,
                      alpha=r.alpha_L, own=1,
                      tiers=(tier("L", self.n_rf, "R"),
                             tier("L", self.n_thz - 1, "LN"))),
            "N": dict(thz, count=self.n_thz, kappa=self._kn, m=r.m_N,
                      alpha=r.alpha_N, own=1,
                      tiers=(tier("N", self.n_rf, "R"),
                             tier("N", self.n_thz - 1, "NL"))),
            "R": dict(count=self.n_rf, kappa=None, m=1, alpha=r.alpha_R,
                      amp=amp_rf, k_a=0.0, sigma2=r.sigma2_R, bw=r.W_R,
                      gains=one, probs=one, int_gains=one, int_probs=one,
                      own=0, tiers=(tier("R", self.n_rf - 1, "R"),
                                    tier("R", self.n_thz, "LN"))),
        }
        self._assoc: Optional[TierMetrics] = None
        self._breaks: dict[str, tuple] = {}

    # -- serving-distance machinery --------------------------------------------

    def _boundary(self, key, x):
        """A term's lower limit at serving distance x: x itself for the
        identity key None, else the exclusion boundary ``e_<key>(x)``."""
        return x if key is None else getattr(self.excl, "e_" + key)(x)

    def _event_breakpoints(self, event: str) -> tuple:
        """Panel breakpoints: density kink, piecewise thresholds, and the radii
        where an exclusion boundary crosses z_m or z_p.  A boundary key "xy"
        contributes h_xy and the reverse boundary e_yx at z_m and z_p."""
        if event in self._breaks:
            return self._breaks[event]
        ex, sup = self.excl, self.sup
        zm, zp = sup.z_m, sup.z_p
        cands = [zm]
        for _, terms in self._ev[event]["tiers"]:
            for key, _, _ in terms:
                if key is not None:
                    back = getattr(ex, "e_" + key[::-1])
                    cands += [getattr(ex, "h_" + key), back(zm), back(zp)]
        out = tuple(sorted({float(c) for c in cands
                            if math.isfinite(c) and sup.z_l < c < zp}))
        self._breaks[event] = out
        return out

    def _weight(self, event: str, x):
        """Unnormalized serving-distance density of one association event:
        count * f_Z(x) * kappa(x), times each competing tier's tail mass
        beyond its exclusion boundaries to the power of its AP count.

        Its integral over [z_l, z_p] is the event's association probability.
        Zero outside [z_l, z_p]: every factor is evaluated at x clipped to the
        support, which leaves in-support values unchanged and keeps the
        blockage and exclusion laws inside their domains.  A scalar x gives a
        float, an array x an array of the same shape.
        """
        ev = self._ev[event]
        x_raw = np.asarray(x, dtype=float)
        zl, zp = self.sup.z_l, self.sup.z_p
        x = np.clip(x_raw, zl, zp)
        out = ev["count"] * self._fz(x)
        if ev["kappa"] is not None:
            out = out * ev["kappa"](x)
        for count, terms in ev["tiers"]:
            if count > 0:
                out = out * sum(tail(self._boundary(key, x))
                                for key, tail, _ in terms) ** count
        out = np.where((x_raw < zl) | (x_raw > zp), 0.0, out)
        return float(out) if out.ndim == 0 else out

    def assoc_probabilities(self) -> TierMetrics:
        if self._assoc is not None:
            return self._assoc
        sup = self.sup
        if self.n_thz == 0:
            self._assoc = TierMetrics(0.0, 0.0, 1.0)
            return self._assoc
        vals = {}
        for event in EVENTS:
            if event == "R" and self.n_rf == 0:
                vals["R"] = 0.0
                continue
            q = Quadrature(rel_tol=self.q_outer.rel_tol, abs_tol=self.q_outer.abs_tol,
                           breakpoints=self._event_breakpoints(event))
            vals[event] = integrate(lambda x, e=event: self._weight(e, x),
                                    sup.z_l, sup.z_p, q).value
        self._assoc = TierMetrics(vals["L"], vals["N"], vals["R"])
        return self._assoc

    def serving_distance_pdf(self, event: str, x):
        """Density of the serving distance given the association event.

        ``_weight`` divided by the event's association probability, so it
        integrates to 1 over [z_l, z_p] and is zero outside it.  A scalar x
        gives a float, an array x an array of the same shape.  Raises
        ``DegenerateEvent`` when the association probability is
        ``<= DEGENERATE_EVENT_TOL``.
        """
        a = self.assoc_probabilities().get(event)
        if a <= DEGENERATE_EVENT_TOL:
            raise DegenerateEvent(
                f"association probability for event {event} is {a!r}"
            )
        return self._weight(event, x) / a

    # -- interference Laplace transforms ----------------------------------------

    def _laplace_coeffs(self, event: str, xs, nu0, order: int):
        """Taylor coefficients (order+1, X, M) of L_I at serving distances
        ``xs`` (X,) and expansion points ``nu0`` (X, M), one row per x.

        The segments are the serving tier's terms.  Per segment, column x
        integrates over [lo(x), z_p], lo the term's boundary at x clipped to
        z_l, cut into pieces at the inner breakpoints inside it.
        Every piece [a, b] is mapped onto u in [0, 1], and column x's
        integrand at u is the sum over its pieces times the map's Jacobian,
        so one integral in u serves all x on shared panels.  The map is
        affine, so the first sweep evaluates a per-x call's initial nodes,
        except on the arccos branch of the off-centre distance law (pieces
        at or above z_m < z_p).  There it is the cubic
        y = a + (b - a)(3u^2 - 2u^3), whose Jacobian 6u(1 - u)(b - a)
        vanishes at both ends and so smooths the density's square-root
        endpoints at z_m and z_p; on shared panels they would make every
        column refine with the worst one.  Each column is divided by the
        segment's interferer mass over [lo(x), z_p] (a tail lookup) and
        multiplied back afterwards: all columns are O(1), so the shared
        max-norm tolerance holds per x.  The xs are sorted by lo and sliced
        so the widest temporary stays within ``_INNER_ELEMENTS`` in the
        first sweep.

        The normalizing denominator is integrated on the same panels as the
        MGF kernels (an extra component per x), so L(0) = 1 holds to machine
        precision by construction.  Raises ``DegenerateEvent`` where an x has
        no interferer mass although the event has interferers.
        """
        ev = self._ev[event]
        xs = np.asarray(xs, dtype=float)
        nu0 = np.asarray(nu0, dtype=float)
        n_x, m_pts = nu0.shape
        k1 = order + 1
        n_exp, terms = ev["tiers"][ev["own"]]
        if n_exp == 0:
            out = np.zeros((k1, n_x, m_pts))
            out[0] = 1.0
            return out

        gains = ev["int_gains"]
        probs = ev["int_probs"]
        n_g = gains.size
        zl, zp = self.sup.z_l, self.sup.z_p
        breaks = self._inner_breaks
        per_piece = m_pts * n_g * k1          # kernel elements per node and piece
        num = np.zeros((n_x, m_pts, n_g, k1))
        den = np.zeros(n_x)
        mass_total = np.zeros(n_x)
        for key, tail, seg in terms:
            lo = np.asarray(self._boundary(key, xs), dtype=float)
            idx = np.flatnonzero(np.isfinite(lo) & (lo < zp))
            lo = np.maximum(lo[idx], zl)
            mass = tail(lo)
            keep = mass > 0.0
            idx, lo, mass = idx[keep], lo[keep], mass[keep]
            mass_total[idx] += mass
            # sorted by lo, a slice's first column has the most pieces
            by_lo = np.argsort(lo)
            pieces = 1 + breaks.size - np.searchsorted(breaks, lo[by_lo],
                                                       side="right")
            c = 0
            while c < idx.size:
                step = max(1, _INNER_ELEMENTS // (15 * pieces[c] * per_piece))
                sl = by_lo[c:c + step]
                c += step
                res = self._segment_integral(seg, lo[sl], mass[sl], nu0[idx[sl]],
                                             gains, order)
                n_c = sl.size
                num[idx[sl]] += res[:-n_c].reshape(n_c, m_pts, n_g, k1) \
                    * mass[sl, None, None, None]
                den[idx[sl]] += res[-n_c:] * mass[sl]

        bad = ~(mass_total > 0.0)
        if bad.any():
            raise DegenerateEvent(
                f"event {event} has interferers but no interferer mass at "
                f"serving distance {float(xs[bad][0])!r}"
            )
        bracket = np.tensordot(num, probs, axes=([2], [0])) / den[:, None, None]
        bracket_jet = Jet(np.moveaxis(bracket, -1, 0))         # (K+1, X, M)
        return (bracket_jet ** float(n_exp)).coeffs

    def _segment_integral(self, seg, lo, mass, nu0, gains, order: int):
        """One segment's mass-normalized kernel integrals over [lo, z_p] for
        each lower limit in ``lo``: the flat (X*M*J*(order+1) + X,) result of
        one ``integrate`` in u, numerators first, then the denominators."""
        kap, amp, k_abs, alpha, m_seg = seg
        zp = self.sup.z_p
        breaks = self._inner_breaks
        # pieces per x: [lo, breakpoints above lo..., z_p], left-aligned and
        # padded with zero-width pieces at z_p
        first = np.searchsorted(breaks, lo, side="right")
        n_pieces = 1 + breaks.size - int(first.min())
        ends = np.append(breaks, zp)
        inner = ends[np.minimum(first[:, None] + np.arange(n_pieces - 1),
                                breaks.size)]
        edges = np.column_stack([lo, inner, np.full(lo.size, zp)])
        start = edges[:, :-1]                                  # (X, P)
        width = np.diff(edges, axis=1)
        scale = width / mass[:, None]
        nu = nu0[None, :, None, :, None]                       # (1, X, 1, M, 1)
        # pieces on the arccos branch of the distance law (off-centre only)
        cubic = start >= self.sup.z_m

        def integrand(u):
            uu = u[:, None, None]
            t = np.where(cubic, uu * uu * (3.0 - 2.0 * uu), uu)
            jac = np.where(cubic, 6.0 * uu * (1.0 - uu), 1.0)
            y = start + width * t                              # (n, X, P)
            w = self._fz(y)
            if kap is not None:
                w = w * kap(y)
            c = amp * np.exp(-k_abs * y) * y ** (-alpha)
            ctil = ((c / m_seg)[..., None] * gains)[:, :, :, None, :]
            # the kernel is affine in the Laplace argument
            a0 = nu * ctil
            a0 += 1.0
            ker = affine_power(a0, ctil, -float(m_seg), order)
            wt = w * scale * jac
            kc = np.einsum("knxpmj,nxp->nxmjk", ker.coeffs, wt)
            return np.concatenate(
                [kc.reshape(u.size, -1), wt.sum(axis=2)], axis=1)

        return integrate(integrand, 0.0, 1.0, self.q_inner).value

    def laplace_interference(self, event: str, s: float, x_serv: float) -> float:
        """Laplace transform of the conditional interference at s >= 0."""
        if s < 0:
            raise ValueError("laplace_interference requires s >= 0")
        coeffs = self._laplace_coeffs(event, np.array([float(x_serv)]),
                                      np.array([[float(s)]]), 0)
        return float(coeffs[0, 0, 0])

    # -- coverage and rate -------------------------------------------------------

    def _s_factor(self, event: str, xs):
        """s(x) at unit threshold; multiply by theta (or by t) to finish."""
        ev = self._ev[event]
        return ev["m"] * np.exp(ev["k_a"] * xs) * xs ** ev["alpha"] / ev["amp"]

    def _assemble_ccdf(self, event: str, s_vals, l_coeffs):
        """Combine Laplace derivatives into the conditional SINR tail.

        ``s_vals`` has shape (X, T), ``l_coeffs`` (K+1, X, T * n_gains); the
        result has shape (X, T).  All series terms are positive (the
        gamma-tail structure), so the sum is numerically benign.
        """
        ev = self._ev[event]
        m = ev["m"]
        gains = ev["gains"]
        probs = ev["probs"]
        nu = s_vals[..., None] / gains                # (X, T, Kk)
        lam = s_vals[..., None] * (ev["sigma2"] / gains)
        lc = l_coeffs.reshape((m,) + nu.shape)

        pois = np.empty((m,) + nu.shape)
        pois[0] = np.exp(-lam)
        for j in range(1, m):
            pois[j] = pois[j - 1] * lam / j
        cum = np.cumsum(pois, axis=0)

        total = np.zeros(nu.shape)
        for u in range(m):
            total += (-1.0) ** u * nu**u * lc[u] * cum[m - 1 - u]
        return total @ probs

    def _coverage_kernel(self, event: str, xs, thresholds) -> np.ndarray:
        """P[SINR > t | serving event, serving distance x], shape (X, T), at
        serving distances ``xs`` (X,) and thresholds t (T,)."""
        ev = self._ev[event]
        t_arr = np.atleast_1d(np.asarray(thresholds, dtype=float))
        s_vals = self._s_factor(event, xs)[:, None] * t_arr
        nu0 = (s_vals[..., None] / ev["gains"]).reshape(xs.size, -1)
        lc = self._laplace_coeffs(event, xs, nu0, ev["m"] - 1)
        return self._assemble_ccdf(event, s_vals, lc)

    def _expect_over_serving(self, event: str, point_fn) -> float:
        """(1/A) * int w(x) point_fn(x) dx over the serving support.

        ``point_fn`` takes the vector of one outer sweep's serving distances
        with w(x) > 0 and returns one value per distance.
        """
        a = self.assoc_probabilities().get(event)
        if a <= DEGENERATE_EVENT_TOL:
            raise DegenerateEvent(
                f"association probability for event {event} is {a!r}"
            )
        q = Quadrature(rel_tol=self.q_outer.rel_tol, abs_tol=self.q_outer.abs_tol,
                       breakpoints=self._event_breakpoints(event))

        def outer(xs):
            w = self._weight(event, xs)
            out = np.zeros_like(xs)
            pos = w > 0.0
            if pos.any():
                out[pos] = w[pos] * point_fn(xs[pos])
            return out

        return integrate(outer, self.sup.z_l, self.sup.z_p, q).value / a

    def conditional_coverage(self, event: str) -> float:
        theta = self.cfg.radio.theta
        val = self._expect_over_serving(
            event, lambda xs: self._coverage_kernel(event, xs, theta)[:, 0])
        if not -PROBABILITY_SPILL_TOL <= val <= 1.0 + PROBABILITY_SPILL_TOL:
            raise NumericalInconsistency(
                f"conditional coverage for event {event} is {val!r}"
            )
        return min(max(val, 0.0), 1.0)

    def conditional_rate(self, event: str) -> float:
        ev = self._ev[event]

        def mean_log(xs):
            # one threshold integral per serving distance
            return np.array([
                integrate_semiinfinite(
                    lambda ts, x=xs[i:i + 1]: self._coverage_kernel(event, x, ts)[0],
                    self.q_rate_t).value
                for i in range(xs.size)])

        val = self._expect_over_serving(event, mean_log)
        if val < 0.0:
            raise NumericalInconsistency(
                f"conditional mean log-rate for event {event} is {val!r}"
            )
        return ev["bw"] / math.log(2.0) * val

    def _per_event(self, fn) -> tuple[TierMetrics, float]:
        assoc = self.assoc_probabilities()
        vals = {}
        for event in EVENTS:
            if assoc.get(event) > DEGENERATE_EVENT_TOL:
                vals[event] = fn(event)
            else:
                vals[event] = math.nan
        total = sum(assoc.get(e) * vals[e] for e in EVENTS
                    if not math.isnan(vals[e]))
        return TierMetrics(vals["L"], vals["N"], vals["R"]), total

    def coverage(self) -> CoverageReport:
        cond, total = self._per_event(self.conditional_coverage)
        nan3 = TierMetrics(math.nan, math.nan, math.nan)
        return CoverageReport(self.assoc_probabilities(), cond, total,
                              nan3, math.nan)

    def rate(self) -> CoverageReport:
        cond, total = self._per_event(self.conditional_rate)
        nan3 = TierMetrics(math.nan, math.nan, math.nan)
        return CoverageReport(self.assoc_probabilities(), nan3, math.nan,
                              cond, total)

    def report(self) -> CoverageReport:
        cond_cov, total_cov = self._per_event(self.conditional_coverage)
        cond_rate, total_rate = self._per_event(self.conditional_rate)
        return CoverageReport(self.assoc_probabilities(), cond_cov, total_cov,
                              cond_rate, total_rate)
