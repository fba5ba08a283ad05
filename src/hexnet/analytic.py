"""Analytical pipeline: association probabilities, serving-distance laws,
interference Laplace transforms, coverage, and average rate.

Everything is driven by one distance density ``f_Z`` (module geometry), the
LOS/NLOS marking probabilities (module propagation), and the six exclusion
boundaries (module exclusion).  The three association events condition the
remaining APs to truncated i.i.d. distance laws, which turns every metric
into nested 1-D integrals.  Coverage carries derivatives of the interference
Laplace transforms through the quadrature as jets; the rate needs only the
transforms themselves.

Every integral over a distance runs in the smoothing variable v of
``geometry.SmoothingMap``, not in z: the LOS probability and, off centre,
the arccos factor of ``f_Z`` have square-root endpoints at z_l, z_m and
z_p, which adaptive Gauss-Kronrod in z can only bisect toward, sweep after
sweep, while in v the integrands are smooth on each side of v_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .antenna import desired_gain_pmf, interferer_gain_pmf
from .errors import DegenerateEvent, NumericalInconsistency
from .exclusion import ExclusionRegions
from .geometry import SmoothingMap, distance_pdf, support
from .numerics.jets import Jet, affine_power
from .numerics.quadrature import Quadrature, TailIntegral, integrate
# not called here: the benchmark's tracer binds this name on this module
from .numerics.quadrature import integrate_semiinfinite  # noqa: F401
from .params import NetworkConfig
from .propagation import kappa_los, kappa_nlos, link_table

EVENTS = ("L", "N", "R")

#: association probability below which conditional laws are undefined
DEGENERATE_EVENT_TOL = 1e-12

#: tolerated numerical spill of a probability outside [0, 1]
PROBABILITY_SPILL_TOL = 1e-6

#: the rate's Laplace-argument grid starts at _RATE_EPS / max(P_max, sigma^2),
#: and a serving distance whose mean SNR is below _RATE_EPS has rate 0
_RATE_EPS = 1e-13

#: the rate's trapezoid step is pi^2 / ln(_RATE_C / rel_tol)
_RATE_C = 1e4


@dataclass(frozen=True)
class TierMetrics:
    """One scalar per association event (LOS THz, NLOS THz, RF)."""

    los: float
    nlos: float
    rf: float

    def get(self, event: str):
        return {"L": self.los, "N": self.nlos, "R": self.rf}[event]


@dataclass(frozen=True)
class CoverageReport:
    assoc: TierMetrics
    cond_coverage: TierMetrics
    total_coverage: float
    cond_rate: TierMetrics      # bits/s
    total_rate: float           # bits/s


class ServingTable(NamedTuple):
    """What one outer sweep needs of its serving distances x (X,), in the
    support, for one association event: the event's unnormalized density
    ``w`` (``AnalyticEngine._weight``), and for each class c of a competing
    tier that has APs, the lower limit ``lo[c]`` in v of class c's APs and
    their tail mass ``mass[c]`` beyond it."""

    x: np.ndarray
    w: np.ndarray
    lo: dict
    mass: dict

    def take(self, sel) -> "ServingTable":
        """The table of the serving distances selected by ``sel``."""
        return ServingTable(self.x[sel], self.w[sel],
                            {c: v[sel] for c, v in self.lo.items()},
                            {c: v[sel] for c, v in self.mass.items()})


def _check_interferer_mass(event: str, table: ServingTable, classes) -> None:
    """Raise ``DegenerateEvent`` where an x of ``table`` has no interferer
    mass, summed over the serving tier's ``classes``, although the event
    has interferers."""
    bad = ~(sum(table.mass[c] for c in classes) > 0.0)
    if bad.any():
        raise DegenerateEvent(
            f"event {event} has interferers but no interferer mass at "
            f"serving distance {float(table.x[bad][0])!r}"
        )


class AnalyticEngine:
    """Per-config caches and the quadrature pipeline.

    Each association event (LOS THz, NLOS THz, RF) is one entry of
    ``_ev``, keyed by the letter of its link class: that class's row of
    ``propagation.link_table`` (``amp``, ``k_a``, ``alpha``, ``m``, ``bias``,
    ``noise``, ``bw``), its blockage law ``kappa`` (None for RF), the
    columns ``cols`` of ``tail`` whose sum is its tail mass, the serving
    tier's AP count, the desired and interferer gain atoms, and two
    competing tiers, RF first, then THz.  A tier is ``(count, classes)``;
    class c's APs lie beyond ``_boundary``, the serving distance itself for
    the serving class, else the exclusion boundary ``e_xy``, x the event and
    y c.  The event's density is the serving density times each tier's
    summed tail mass beyond its boundaries to the power ``count``
    (``_weight``); the boundaries give the panel breakpoints
    (``_event_breakpoints``); and the serving tier, ``tiers[own]``, gives
    the interferer segments of the Laplace transform (``_laplace_coeffs``),
    each with its class's ``_ev`` entry.

    Every quadrature over a distance runs in the smoothing variable v of
    ``vmap`` (``geometry.SmoothingMap``) with the Jacobian dz/dv, which
    cancels the square-root endpoints of the distance law and the LOS
    probability; in z each would cost the adaptive rule a bisection sweep
    per halving toward it, at every level.  ``tail`` is one ``TailIntegral``
    of the two columns (f_Z kappa_L, f_Z kappa_N) in v, built at 1e-11 per
    column, effectively exact for the outer loops: a lookup takes a lower
    limit in v and returns the LOS and NLOS masses beyond it.  The RF
    class's mass, that of f_Z, is the sum of the two columns.

    The outer expectations over the serving distance x run at ``rel_tol``
    on [0, v_max] (``_integrate_over_serving``).  An event's association
    integral starts on its breakpoints mapped into v; its coverage and rate
    integrals start on the panels the association integral ended on
    (``_panels``), as the weight w(x) is a factor of their integrands and
    those panels are where it needed resolution.  Each outer sweep builds
    one ``ServingTable`` (``_serving_table``): per class of a competing
    tier with APs, the lower limit in v of its APs and, in one tail lookup
    for all classes, the mass beyond it; w(x) is read from the table, and so
    are the interferer segments' lower limits and masses in the Laplace
    kernel.  Coverage's inner interference integrals run 10x tighter
    (``q_inner``), batched: one ``integrate`` per outer sweep and interferer
    class with mass serves the sweep's whole vector of x.  Each x's range
    [lo(x), z_p] is taken into v, cut at ``_inner_breaks`` (z_m and four
    seeds near z_l, mapped into v), its pieces are mapped affinely onto
    shared panels in u in [0, 1], and its column is divided by the
    segment's interferer mass over the range, so the max-norm tolerance
    applies per x, to the bracket averaged over the interferer gain atoms.
    The kernel is accumulated one piece at a time, so its widest
    temporary, one piece's jet, has no piece axis.

    Coverage needs the Laplace transforms' derivatives up to order m - 1 at
    the threshold, carried as jets.  The rate needs L_I at order 0 only, on
    one fixed grid z_j per serving tier (``_rate_grid``): by Hamdi's lemma
    its mean log of 1 + SINR is a trapezoid sum in ln z whose step
    ``rate_step`` is set a priori from ``rel_tol`` (``conditional_rate``).
    Per interferer class, one ``TailIntegral`` in v (``_rate_bracket``),
    built on the first ``conditional_rate``, holds the class's bracket at
    every z_j and its mass: one lookup at the serving table's ``lo[c]``
    gives L_I on the whole grid for every x of an outer sweep
    (``_rate_laplace``), and the rate runs no inner integral.
    """

    def __init__(self, cfg: NetworkConfig, rel_tol: float = 1e-7):
        if cfg.radio.B_T <= 0.0:
            raise ValueError(
                "the analytic pipeline needs B_T > 0; B_T = 0 association "
                "semantics are only defined for the Monte-Carlo engine"
            )
        self.cfg = cfg
        g = cfg.geometry
        self.sup = support(cfg)
        self.n_thz = g.n_thz
        self.n_rf = g.n_rf
        self.pmf_desired = desired_gain_pmf(cfg.antenna)
        self.pmf_interf = interferer_gain_pmf(cfg.antenna)
        links = link_table(cfg)
        self.excl = ExclusionRegions(self.sup.z_l, links)
        self.vmap = SmoothingMap(self.sup)

        self.q_outer = Quadrature(rel_tol=rel_tol, abs_tol=1e-11)
        self.q_inner = Quadrature(rel_tol=rel_tol * 0.1, abs_tol=1e-13)
        # pre-split every inner range, in v: the MGF kernels turn over close
        # to the lower limit, and seeding pieces there saves refinement sweeps
        zl, zp = self.sup.z_l, self.sup.z_p
        seeds = (zl + (zp - zl) * f for f in (0.03, 0.12, 0.3, 0.6))
        self._inner_breaks = self.vmap.v(np.array(
            sorted({p for p in (self.sup.z_m, *seeds) if zl < p < zp})))
        self.rate_step = math.pi ** 2 / math.log(_RATE_C / rel_tol)
        v_max = self.vmap.v_max
        self.q_tail = Quadrature(rel_tol=1e-11, abs_tol=1e-15,
                                 breakpoints=(self.vmap.v_m,))

        self._fz = lambda z: distance_pdf(z, self.sup, g.v_0, g.r_d)
        beta = cfg.blockage.beta(g.h_A, g.h_U)
        self._kl = lambda z: kappa_los(z, beta, g.delta_h)
        self._kn = lambda z: kappa_nlos(z, beta, g.delta_h)

        def los_nlos(v):
            z, jac = self.vmap.z(v)
            f = self._fz(z)
            kl = self._kl(z)
            # kappa_nlos is 1 - kappa_los, to the bit
            return np.column_stack([f * kl, f * (1.0 - kl)]) * jac[:, None]

        # LOS and NLOS tail masses beyond a lower limit given in v
        self.tail = TailIntegral(los_nlos, 0.0, v_max, self.q_tail)

        # gain atoms of probability zero contribute nothing to the outer sums
        des_g = np.asarray(self.pmf_desired.gains)
        des_p = np.asarray(self.pmf_desired.probs)
        des_g, des_p = des_g[des_p > 0], des_p[des_p > 0]
        int_g = np.asarray(self.pmf_interf.gains)
        int_p = np.asarray(self.pmf_interf.probs)
        int_g, int_p = int_g[int_p > 0], int_p[int_p > 0]
        one = np.asarray([1.0])
        self._ev = {}
        for i, (event, kappa, cols) in enumerate(zip(
                EVENTS, (self._kl, self._kn, None), ([0], [1], [0, 1]))):
            thz = event != "R"
            self._ev[event] = dict(
                {f: col[i].item() for f, col in links._asdict().items()},
                kappa=kappa, cols=cols,
                count=self.n_thz if thz else self.n_rf,
                gains=des_g if thz else one, probs=des_p if thz else one,
                int_gains=int_g if thz else one, int_probs=int_p if thz else one,
                # competing tiers (count, classes), RF first; the server's
                # own tier is one AP short and lists its class first
                own=int(thz),
                tiers=((self.n_rf - (not thz), "R"),
                       (self.n_thz - thz, "NL" if event == "N" else "LN")))
        self._assoc: Optional[TierMetrics] = None
        # per event, the final panels' edges (in v) of its association
        # integral, where every later outer integral of the event starts
        self._panels: dict[str, tuple] = {}
        # per interferer class, the rate's bracket table, built on first use
        self._brackets: dict[str, TailIntegral] = {}

    # -- serving-distance machinery --------------------------------------------

    def _in_v(self, f):
        """The integrand f(z) dz/dv in the smoothing variable v."""
        def integrand(v):
            z, jac = self.vmap.z(v)
            return f(z) * jac
        return integrand

    def _integrate_over_serving(self, f, cuts):
        """int f(x) dx over [z_l, z_p], run in the smoothing variable on
        panels cut at ``cuts`` (in v); the ``integrate`` result."""
        q = replace(self.q_outer, breakpoints=tuple(cuts))
        return integrate(self._in_v(f), 0.0, self.vmap.v_max, q)

    def _event_cuts(self, event: str) -> tuple:
        """The event's breakpoints mapped into v."""
        return tuple(self.vmap.v(np.array(self._event_breakpoints(event))))

    def _boundary(self, event: str, c: str, x):
        """Lower limit of class-c APs at serving distance x: x itself for the
        serving class, else the exclusion boundary ``e_<event><c>(x)``."""
        if c == event:
            return x
        return getattr(self.excl, "e_" + (event + c).lower())(x)

    def _event_breakpoints(self, event: str) -> tuple:
        """Panel breakpoints: density kink, piecewise thresholds, and the radii
        where an exclusion boundary crosses z_m or z_p.  A boundary e_xy
        contributes h_xy and the reverse boundary e_yx at z_m and z_p."""
        ex, sup = self.excl, self.sup
        zm, zp = sup.z_m, sup.z_p
        cands = [zm]
        for _, classes in self._ev[event]["tiers"]:
            for c in classes:
                if c != event:
                    key = (event + c).lower()
                    back = getattr(ex, "e_" + key[::-1])
                    cands += [getattr(ex, "h_" + key), back(zm), back(zp)]
        return tuple(sorted({float(c) for c in cands
                             if math.isfinite(c) and sup.z_l < c < zp}))

    def _serving_table(self, event: str, x) -> ServingTable:
        """The ``ServingTable`` of one association event at serving
        distances x (X,), clipped to the support: one exclusion boundary
        per class of a competing tier with APs, and one lookup of
        ``self.tail`` for all of them, a class's mass being the sum of its
        columns (``cols``: LOS, NLOS, or both for RF).  The density
        w = count * f_Z(x) * kappa(x), times each competing tier's summed
        mass to the power of its AP count."""
        ev = self._ev[event]
        x = np.clip(x, self.sup.z_l, self.sup.z_p)
        classes = [c for count, cs in ev["tiers"] if count > 0 for c in cs]
        lo = {c: self.vmap.v(self._boundary(event, c, x)) for c in classes}
        mass = {}
        if classes:
            cols = self.tail(np.concatenate([lo[c] for c in classes]))
            for k, c in enumerate(classes):
                mass[c] = cols[k * x.size:(k + 1) * x.size,
                               self._ev[c]["cols"]].sum(axis=1)
        w = ev["count"] * self._fz(x)
        if ev["kappa"] is not None:
            w = w * ev["kappa"](x)
        for count, cs in ev["tiers"]:
            if count > 0:
                # np.power, not **: a float's ** is libm's pow, which can
                # differ in the last bit from numpy's on arrays
                w = w * np.power(sum(mass[c] for c in cs), count)
        return ServingTable(x, w, lo, mass)

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
        x = np.asarray(x, dtype=float)
        w = self._serving_table(event, x.reshape(-1)).w.reshape(x.shape)
        w = np.where((x < self.sup.z_l) | (x > self.sup.z_p), 0.0, w)
        return float(w) if w.ndim == 0 else w

    def assoc_probabilities(self) -> TierMetrics:
        if self._assoc is not None:
            return self._assoc
        if self.n_thz == 0:
            self._assoc = TierMetrics(0.0, 0.0, 1.0)
            # no association integral to start from
            self._panels["R"] = self._event_cuts("R")
            return self._assoc
        vals = {}
        for event in EVENTS:
            if event == "R" and self.n_rf == 0:
                vals["R"] = 0.0
                continue
            res = self._integrate_over_serving(
                lambda x, e=event: self._weight(e, x), self._event_cuts(event))
            vals[event] = res.value
            self._panels[event] = res.breakpoints
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
        return self._weight(event, x) / self._event_probability(event)

    def _event_probability(self, event: str) -> float:
        a = self.assoc_probabilities().get(event)
        if a <= DEGENERATE_EVENT_TOL:
            raise DegenerateEvent(
                f"association probability for event {event} is {a!r}")
        return a

    # -- interference Laplace transforms ----------------------------------------

    def _laplace_coeffs(self, event: str, table: ServingTable, nu0,
                        order: int):
        """Taylor coefficients (order+1, X, M) of L_I at the serving
        distances of ``table`` (X,) and expansion points ``nu0`` (X, M), one
        row per x.

        The segments are the serving tier's classes.  Per segment, column x
        integrates over [lo(x), z_p], lo the class's boundary at x clipped to
        z_l, in the smoothing variable: over [v(lo), v_max], cut into pieces
        at the inner breakpoints inside it.  The lower limits v(lo) and the
        segment's interferer masses beyond them are the table's ``lo`` and
        ``mass``: the kernel looks up no boundary and no tail mass.  Every
        piece [a, b] is mapped affinely onto u in [0, 1], and column x's
        integrand at u is the sum over its pieces of the integrand in v times
        (b - a), so one integral in u serves all x on shared panels.  In v
        the density's square-root endpoints are smooth; on shared panels in
        z they would make every column refine with the worst one.  Each
        column is divided by the segment's interferer mass over [lo(x), z_p]
        and multiplied back afterwards: all columns are O(1), so the shared
        max-norm tolerance holds per x; an x where that mass is 0 has no
        column.  The interferer gain atoms are averaged inside the
        integrand, so the tolerance holds on the gain-averaged bracket, and
        each segment is one ``integrate`` over all its x with mass.

        The normalizing denominator is integrated on the same panels as the
        MGF kernels (an extra component per x), so L(0) = 1 holds to machine
        precision by construction.  Raises ``DegenerateEvent`` where an x has
        no interferer mass although the event has interferers.
        """
        ev = self._ev[event]
        nu0 = np.asarray(nu0, dtype=float)
        n_x, m_pts = nu0.shape
        k1 = order + 1
        n_exp, classes = ev["tiers"][ev["own"]]
        if n_exp == 0:
            out = np.zeros((k1, n_x, m_pts))
            out[0] = 1.0
            return out

        _check_interferer_mass(event, table, classes)
        num = np.zeros((k1, n_x, m_pts))
        den = np.zeros(n_x)
        for c in classes:
            idx = np.flatnonzero(table.mass[c] > 0.0)
            if idx.size == 0:
                continue
            mass = table.mass[c][idx]
            res = self._segment_integral(self._ev[c], table.lo[c][idx], mass,
                                         nu0[idx], order)
            num[:, idx] += res[:-idx.size].reshape(k1, idx.size, m_pts) \
                * mass[:, None]
            den[idx] += res[-idx.size:] * mass
        bracket = num / den[:, None]                            # (K+1, X, M)
        return (Jet(bracket) ** float(n_exp)).coeffs

    def _segment_integral(self, seg, lo, mass, nu0, order: int):
        """One segment's mass-normalized kernel integrals over [lo, v_max]
        in v for each lower limit in ``lo`` (in v): the flat
        ((order+1)*X*M + X,) result of one ``integrate`` in u, numerators
        first, then the denominators.  ``seg`` is the interferer class's
        ``_ev`` entry.

        The integrand averages each piece's kernel jet over the class's
        interferer gain atoms with their probabilities and adds it into one (n, order+1, X, M)
        accumulator, one piece at a time, each weighted by
        w jac width / mass: the density times dz/dv times the piece's width,
        over the segment's mass.  So the max-norm tolerance holds on the
        gain-averaged bracket, which is what coverage uses.  The small
        product is divided, so a tiny positive mass cannot overflow the
        weight."""
        kap, amp, k_abs, alpha, m_seg = (
            seg[k] for k in ("kappa", "amp", "k_a", "alpha", "m"))
        gains, probs = seg["int_gains"], seg["int_probs"]
        v_max = self.vmap.v_max
        breaks = self._inner_breaks
        # pieces per x: [lo, breakpoints above lo..., v_max], left-aligned
        # and padded with zero-width pieces at v_max
        first = np.searchsorted(breaks, lo, side="right")
        n_pieces = 1 + breaks.size - int(first.min())
        ends = np.append(breaks, v_max)
        inner = ends[np.minimum(first[:, None] + np.arange(n_pieces - 1),
                                breaks.size)]
        edges = np.column_stack([lo, inner, np.full(lo.size, v_max)])
        start = edges[:, :-1]                                  # (X, P)
        width = np.diff(edges, axis=1)
        nu = nu0[:, :, None]                                   # (X, M, 1)

        def integrand(u):
            y, jac = self.vmap.z(start + width * u[:, None, None])  # (n, X, P)
            w = self._fz(y)
            if kap is not None:
                w = w * kap(y)
            wt = w * jac * width / mass[:, None]
            c = amp * np.exp(-k_abs * y) * y ** (-alpha)
            ctil = (c / m_seg)[..., None, None] * gains        # (n, X, P, 1, J)
            acc = np.zeros((u.size, order + 1) + nu0.shape)
            for p in range(n_pieces):
                a1 = ctil[:, :, p]
                # the kernel is affine in the Laplace argument
                a0 = nu * a1
                a0 += 1.0
                ker = affine_power(a0, a1, -float(m_seg), order).coeffs @ probs
                ker *= wt[:, :, p, None]
                acc += ker.swapaxes(0, 1)
            return np.concatenate(
                [acc.reshape(u.size, -1), wt.sum(axis=2)], axis=1)

        return integrate(integrand, 0.0, 1.0, self.q_inner).value

    # -- coverage and rate -------------------------------------------------------

    def _s_factor(self, event: str, xs):
        """s(x) at unit threshold, m / c(x); multiply by theta to finish.
        +inf, without a warning, where the serving power c(x) underflows."""
        ev = self._ev[event]
        with np.errstate(over="ignore"):
            return ev["m"] * np.exp(ev["k_a"] * xs) * xs ** ev["alpha"] / ev["amp"]

    def _assemble_ccdf(self, event: str, s_vals, l_coeffs):
        """Combine Laplace derivatives into the conditional SINR tail.

        ``s_vals`` has shape (X,), ``l_coeffs`` (K+1, X, n_gains); the result
        has shape (X,).  All series terms are positive (the gamma-tail
        structure), so the sum is numerically benign.
        """
        ev = self._ev[event]
        m = ev["m"]
        gains = ev["gains"]
        probs = ev["probs"]
        nu = s_vals[..., None] / gains               # (X, Kk)
        lam = s_vals[..., None] * (ev["noise"] / gains)

        pois = np.empty((m,) + nu.shape)
        pois[0] = np.exp(-lam)
        for j in range(1, m):
            pois[j] = pois[j - 1] * lam / j
        cum = np.cumsum(pois, axis=0)

        total = np.zeros(nu.shape)
        for u in range(m):
            total += (-1.0) ** u * nu**u * l_coeffs[u] * cum[m - 1 - u]
        return total @ probs

    def _coverage_kernel(self, event: str, table: ServingTable) -> np.ndarray:
        """P[SINR > theta | serving event, serving distance x] at the serving
        distances of ``table`` (X,)."""
        ev = self._ev[event]
        s_vals = self._s_factor(event, table.x) * self.cfg.radio.theta
        # where e^{-lambda} is 0 in double at the largest desired gain (at
        # the latest where the serving power underflows), so is every term
        live = np.exp(-s_vals * (ev["noise"] / ev["gains"].max())) > 0.0
        out = np.zeros(s_vals.shape)
        if live.any():
            s_live = s_vals[live]
            nu0 = s_live[:, None] / ev["gains"]
            lc = self._laplace_coeffs(event, table.take(live), nu0,
                                      ev["m"] - 1)
            out[live] = self._assemble_ccdf(event, s_live, lc)
        return out

    def _mean_snr(self, event: str, x):
        """snr(x) = c(x) E[g] / sigma^2, the mean SNR at serving distance x."""
        ev = self._ev[event]
        mean_g = float(ev["probs"] @ ev["gains"])
        return ev["m"] / self._s_factor(event, x) * mean_g / ev["noise"]

    def _rate_grid(self, event: str) -> np.ndarray:
        """The rate's grid z_j for the serving tier of ``event``, the same
        for each of the tier's classes (see ``conditional_rate``)."""
        ev = self._ev[event]
        z_l = np.array([self.sup.z_l])
        snr_max = max(float(self._mean_snr(c, z_l)[0])
                      for c in ev["tiers"][ev["own"]][1])
        lo = math.log(_RATE_EPS / max(snr_max, 1.0))
        n = math.ceil((math.log(40.0) - lo) / self.rate_step)
        return np.exp(lo + self.rate_step * np.arange(n + 1)) / ev["noise"]

    def _rate_bracket(self, c: str) -> TailIntegral:
        """The rate's bracket table of interferer class c, built on first
        use: a ``TailIntegral`` in v with, per z_j of the class's tier grid,
        the column f_Z kappa_c dz/dv sum_g p_g (1 + z_j c_c(y) g / m_c)^-m_c,
        and last the mass column f_Z kappa_c dz/dv."""
        if c not in self._brackets:
            seg = self._ev[c]
            kap, amp, k_abs, alpha, m_seg = (
                seg[k] for k in ("kappa", "amp", "k_a", "alpha", "m"))
            gains, probs = seg["int_gains"], seg["int_probs"]
            z = self._rate_grid(c)

            def columns(v):
                y, jac = self.vmap.z(v)
                w = self._fz(y) * jac
                if kap is not None:
                    w = w * kap(y)
                a = (amp * np.exp(-k_abs * y) * y ** (-alpha) / m_seg)[:, None]
                # in place: a lookup evaluates this at 15 nodes per lower limit
                out = np.zeros((v.size, z.size + 1))
                ker, term = out[:, :-1], np.empty((v.size, z.size))
                for g, p in zip(gains, probs):
                    np.multiply(a, z * g, out=term)
                    term += 1.0
                    np.power(term, -m_seg, out=term)
                    term *= p
                    ker += term
                ker *= w[:, None]
                out[:, -1] = w
                return out

            self._brackets[c] = TailIntegral(columns, 0.0, self.vmap.v_max,
                                             self.q_tail)
        return self._brackets[c]

    def _rate_laplace(self, event: str, table: ServingTable):
        """L_I(z_j | x) (X, J) on the rate's grid at the serving distances of
        ``table``: one lookup of each interferer class's bracket table at the
        table's lower limit ``lo[c]``, the brackets summed over the classes
        and divided by their summed mass column, to the power of the
        interferer count.  1 without interferers.  Raises
        ``DegenerateEvent`` where an x has no interferer mass."""
        n_exp, classes = self._ev[event]["tiers"][self._ev[event]["own"]]
        if n_exp == 0:
            return 1.0
        _check_interferer_mass(event, table, classes)
        cols = sum(self._rate_bracket(c)(table.lo[c]) for c in classes)
        return np.power(cols[:, :-1] / cols[:, -1:], float(n_exp))

    def _rate_kernel(self, event: str, table: ServingTable) -> np.ndarray:
        """E[ln(1 + SINR) | serving event, serving distance x] at the
        serving distances of ``table`` (X,): the trapezoid sum of Hamdi's
        lemma in lambda = ln z (see ``conditional_rate``), 0 where the mean
        SNR is below ``_RATE_EPS``, which bounds the value by it."""
        ev = self._ev[event]
        m, gains, probs = ev["m"], ev["gains"], ev["probs"]
        out = np.zeros(table.x.shape)
        live = self._mean_snr(event, table.x) >= _RATE_EPS
        if not live.any():
            return out
        table = table.take(live)
        s = self._s_factor(event, table.x)[:, None]         # m / c(x)
        z = self._rate_grid(event)
        # 1 - M_S(z_j) by expm1/log1p: small z keeps its digits
        one_minus_ms = -sum(p * np.expm1(-m * np.log1p(z * g / s))
                            for g, p in zip(gains, probs))
        g_vals = one_minus_ms * self._rate_laplace(event, table)
        out[live] = self.rate_step * (g_vals @ np.exp(-z * ev["noise"]))
        return out

    def _expect_over_serving(self, event: str, point_fn) -> float:
        """(1/A) * int w(x) point_fn(x) dx over the serving support.

        Starts on the final panels of the event's association integral:
        w(x) is a factor of this integrand too, and those panels are where
        it needed resolution.  ``point_fn`` takes the ``ServingTable`` of
        one outer sweep's serving distances with w(x) > 0 and returns one
        value per distance.
        """
        a = self._event_probability(event)

        def outer(xs):
            table = self._serving_table(event, xs)
            out = np.zeros_like(xs)
            pos = table.w > 0.0
            if pos.any():
                out[pos] = table.w[pos] * point_fn(table.take(pos))
            return out

        return self._integrate_over_serving(outer, self._panels[event]).value / a

    def conditional_coverage(self, event: str) -> float:
        val = self._expect_over_serving(
            event, lambda table: self._coverage_kernel(event, table))
        if not -PROBABILITY_SPILL_TOL <= val <= 1.0 + PROBABILITY_SPILL_TOL:
            raise NumericalInconsistency(
                f"conditional coverage for event {event} is {val!r}"
            )
        return min(max(val, 0.0), 1.0)

    def conditional_rate(self, event: str) -> float:
        """Average rate W E[log2(1 + SINR)] given the association event, in
        bits/s.

        Hamdi's lemma (K. A. Hamdi, "A useful lemma for capacity analysis of
        fading interference channels", IEEE Trans. Commun. 58(2), 2010): for
        independent S and I,
        E[ln(1 + S/(I + sigma^2))] = int_0^inf (1/z) (1 - M_S(z)) L_I(z)
        e^{-z sigma^2} dz, with M_S(z) = E[e^{-z S}].  Given the serving
        distance x, S = c(x) g h with c(x) = amp e^{-k_a x} x^-alpha
        = m / s(x), g a desired-gain atom and h ~ Gamma(m, 1/m), so
        M_S(z) = sum_g p_g (1 + z c g / m)^-m in closed form, and L_I is
        needed at order 0 only.

        In lambda = ln z the integral is int G dlambda with
        G = (1 - M_S) L_I e^{-z sigma^2}, analytic in the strip
        |Im lambda| < pi/2, where Re z > 0, decaying like e^lambda on the
        left and double-exponentially on the right.  So the trapezoid sum
        h sum_j G(lambda_j) errs by about e^{-pi^2/h} times the integral of
        |G| along the strip's edges (L. N. Trefethen and J. A. C. Weideman,
        "The exponentially convergent trapezoidal rule", SIAM Review 56(3),
        2014).  ``_rate_kernel`` takes h = ``rate_step``
        = pi^2 / ln(``_RATE_C`` / rel_tol), ``_RATE_C`` = 1e4.  Against
        h = 0.12, the error per serving distance measured at most
        25 e^{-pi^2/h} = 2.5e-3 rel_tol for h from 0.28 to 0.9, on Table 3
        and on edges: B_T 1e-6 and 1e6, m = 10 with k_a = 0, no blockers,
        v_0 = 79.9, h_A 1.41 and 1.4 + 1e-7, N_A = 1 and sigma_eps = 10 deg.

        The grid lambda_j = lambda_0 + j h is the same for every x of a
        serving tier: from lambda_0 = ln eps - ln max(P_max, sigma^2), with
        eps = ``_RATE_EPS`` = 1e-13 and P_max the tier's largest mean
        serving power c(z_l) E[g], to ln(40 / sigma^2).  As
        1 - M_S(z) <= z E[S], the part below lambda_0 is at most
        eps E[S] / max(P_max, sigma^2) <= eps min(1, snr(x)), snr(x) the
        mean SNR c(x) E[g] / sigma^2; above the grid e^{-z sigma^2} < e^{-40}.
        A serving distance with snr(x) < eps is given exactly 0, as by the
        Monte-Carlo engine where the serving power all but underflows: an
        error below eps, since E[ln(1 + SINR)] <= ln(1 + snr(x)) <= snr(x)
        by Jensen's inequality.

        The mean log is then averaged over the serving distance.  Raises
        ``NumericalInconsistency`` if it comes out negative.
        """
        val = self._expect_over_serving(
            event, lambda table: self._rate_kernel(event, table))
        if val < 0.0:
            raise NumericalInconsistency(
                f"conditional mean log-rate for event {event} is {val!r}"
            )
        return self._ev[event]["bw"] / math.log(2.0) * val

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

    def report(self) -> CoverageReport:
        cond_cov, total_cov = self._per_event(self.conditional_coverage)
        cond_rate, total_rate = self._per_event(self.conditional_rate)
        return CoverageReport(self.assoc_probabilities(), cond_cov, total_cov,
                              cond_rate, total_rate)
