"""Analytical pipeline: association probabilities, serving-distance laws,
interference Laplace transforms, coverage, and average rate.

Everything is driven by one distance law ``f_Z`` (module geometry), the
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
sweep, while in v the integrands are smooth on each side of v_m.  The law
itself is written in v: ``geometry.distance_pdf`` takes v and returns the
distance z and the weight f_Z dz/dv, which every integrand reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .antenna import desired_gain_pmf, interferer_gain_pmf
from .errors import ConfigError, DegenerateEvent, NumericalInconsistency
from .exclusion import ExclusionRegions
from .geometry import SmoothingMap, distance_pdf, support
from .numerics.jets import Jet, affine_power
from .numerics.quadrature import Quadrature, TailIntegral, integrate
# not called here: the benchmark's tracer binds this name on this module
from .numerics.quadrature import integrate_semiinfinite  # noqa: F401
from .params import NetworkConfig
from .propagation import EVENTS, TierMetrics, kappa_los, kappa_nlos, link_table

#: association probability below which conditional laws are undefined
DEGENERATE_EVENT_TOL = 1e-12

#: tolerated numerical spill of a probability outside [0, 1]
PROBABILITY_SPILL_TOL = 1e-6

#: a serving distance whose mean SNR is below _RATE_EPS has rate 0
_RATE_EPS = 1e-13

#: the rate's Laplace-argument grid is cut where each end's share of the
#: mean log is below eps = _RATE_TRUNC * rel_tol (see ``conditional_rate``)
_RATE_TRUNC = 1e-3

#: the rate's trapezoid step is pi^2 / ln(_RATE_C / rel_tol)
_RATE_C = 1e4


@dataclass(frozen=True)
class CoverageReport:
    assoc: TierMetrics
    cond_coverage: TierMetrics
    total_coverage: float
    cond_rate: TierMetrics      # bits/s
    total_rate: float           # bits/s


class ServingTable(NamedTuple):
    """What one outer sweep needs of its nodes v (X,) in [0, v_max], for one
    association event: their serving distances ``x``, the event's
    unnormalized density ``w`` in v, whose integral is the event's
    association probability, and for each class c of a competing tier that
    has APs, the lower limit ``lo[c]`` in v of class c's APs and their tail
    mass ``mass[c]`` beyond it.  The table is the engine's one source of a
    class's tail mass: w and the denominator of L_I
    (``AnalyticEngine._laplace``) both read it."""

    x: np.ndarray
    w: np.ndarray
    lo: dict
    mass: dict

    def take(self, sel) -> "ServingTable":
        """The table of the serving distances selected by ``sel``."""
        return ServingTable(self.x[sel], self.w[sel],
                            {c: v[sel] for c, v in self.lo.items()},
                            {c: v[sel] for c, v in self.mass.items()})

    def concat(self, other: "ServingTable") -> "ServingTable":
        """This table's entries followed by ``other``'s."""
        def cat(a, b):
            return np.concatenate([a, b])
        return ServingTable(cat(self.x, other.x), cat(self.w, other.w),
                            {c: cat(v, other.lo[c])
                             for c, v in self.lo.items()},
                            {c: cat(v, other.mass[c])
                             for c, v in self.mass.items()})


def _interferer_kernel(c_m, nu, gains, probs, m, order: int):
    """Jet in ds of one interferer's gain-averaged Nakagami kernel
    sum_g p_g (1 + (nu + ds) c g / m)^-m around ds = 0: the coefficients
    (order+1, ..., M) at path gains over m ``c_m`` (...) and expansion
    points ``nu`` (..., M), broadcast against each other.  The kernel is
    affine in the Laplace argument.  The interferer gain atoms ``gains``
    with probabilities ``probs`` run on a leading axis, so every
    elementwise loop runs over the long trailing axes, and are averaged by
    one matrix product."""
    a1 = gains.reshape((-1,) + (1,) * (c_m.ndim + 1)) * c_m[..., None]
    a0 = nu * a1
    a0 += 1.0
    coeffs = affine_power(a0, a1, -float(m), order).coeffs  # (K+1, J, ..., M)
    return (probs @ coeffs.reshape(order + 1, probs.size, -1)).reshape(
        coeffs.shape[:1] + coeffs.shape[2:])


class AnalyticEngine:
    """Per-config caches and the quadrature pipeline.

    Each association event (LOS THz, NLOS THz, RF) is one entry of
    ``_ev``, keyed by the letter of its link class: that class's row of
    ``propagation.link_table`` (``amp``, ``k_a``, ``alpha``, ``m``,
    ``log_power``, ``noise``, ``bw``), its law, the columns ``cols`` of
    ``tail`` whose sum is its tail mass, the serving tier's AP count, the desired and
    interferer gain atoms, and two competing tiers, RF first, then THz.  A
    class's law is its ``density`` f_Z kappa_c (f_Z for RF), in v, and its
    ``path_gain`` c_c(y) = amp e^{-k_a y} y^-alpha; every integrand over an
    AP distance reads them, and nothing else spells them out.  A tier is
    ``(count, classes)``; class c's APs lie beyond the serving distance
    itself for the serving class, else beyond the exclusion boundary
    ``e_xy``, x the event and y c.  The event's weight is the
    serving class's density times each tier's summed tail mass beyond its
    boundaries to the power ``count`` (``_serving_table``); the boundaries
    give the panel breakpoints (``_event_breakpoints``); and the serving
    tier, ``tiers[own]``, gives the interferer classes of the Laplace
    transform, each with its ``_ev`` entry.

    Every quadrature over a distance runs in the smoothing variable v of
    ``vmap`` (``geometry.SmoothingMap``), whose Jacobian dz/dv cancels the
    square-root endpoints of the distance law and the LOS probability; in z
    each would cost the adaptive rule a bisection sweep per halving toward
    it, at every level.  A class's ``density`` maps v to (y, f_Z(y) dz/dv
    kappa_c(y)) by the one law ``geometry.distance_pdf``.  ``tail`` is one
    ``TailIntegral`` of the LOS and NLOS densities in v, built at 1e-11 per
    column, effectively exact for the outer loops: a lookup takes a lower
    limit in v and returns the LOS and NLOS masses beyond it, read from the
    interpolants of the build's panels with no new evaluation of f_Z or
    kappa, except where the masses vanish toward v_max off centre.  The RF
    class's mass, that of f_Z, is the sum of the two columns.

    The outer expectations over the serving distance x run at ``rel_tol``
    in v on [0, v_max] (``_integrate_over_serving``).  An event's
    association integral starts on its breakpoints mapped into v; its
    coverage and rate integrals start on the panels the association
    integral ended on (``_panels``), as the weight w is a factor of their
    integrands and those panels are where it needed resolution.  Each outer
    sweep reads one ``ServingTable`` of its nodes v (``_table_at``): their
    serving distances x and, per class of a competing tier with APs, the
    lower limit in v of its APs and, in one tail lookup for all classes,
    the mass beyond it; w is read from the table, and so are the interferer
    classes' lower limits and masses in the Laplace transform.  A table is
    a pure function of the event and v, so the engine keeps every node's
    table per event and builds (``_serving_table``) only the nodes its
    store lacks: the first sweeps of coverage and rate repeat the
    association integral's final nodes, and the rate's refinement repeats
    coverage's splits.  Coverage and rate evaluate their kernels only where
    w > 0 and the metric can be non-zero (``_expect_over_serving``).

    Both metrics rest on one interference law: L_I = (sum_c bracket_c / sum_c
    mass_c)^n over the serving tier's classes, n its interferer count
    (``_laplace``), where bracket_c integrates class c's density times the
    gain-averaged Nakagami kernel sum_g p_g (1 + s c_c g / m_c)^-m_c
    (``_interferer_kernel``) beyond the class's lower limit and mass_c is the
    serving table's ``mass[c]``, the same lookup of ``tail`` that gives w.
    Only the bracket's source differs.  Coverage needs L_I's derivatives up to
    order m - 1 at the threshold, carried as jets, from inner integrals 10x
    tighter (``q_inner``), one per outer sweep and interferer class with mass
    for the sweep's whole vector of x (``_laplace_coeffs``).  The rate needs
    L_I at order 0 only, on one fixed grid z_j per serving tier
    (``_rate_grid``, built once per tier): by Hamdi's lemma its mean log of 1 +
    SINR is a trapezoid sum in ln z whose step ``rate_step`` and ends are set a
    priori from ``rel_tol`` (``conditional_rate``).  Per interferer class, one
    ``TailIntegral`` in v (``_rate_bracket``), built on the first
    ``conditional_rate``, holds the class's bracket at every z_j, so one lookup
    per class and outer sweep at the serving table's ``lo[c]`` gives L_I on the
    whole grid (``_rate_laplace``), with no inner integral.
    """

    def __init__(self, cfg: NetworkConfig, rel_tol: float = 1e-7):
        if cfg.radio.B_T <= 0.0:
            raise ConfigError(
                "the analytic pipeline needs B_T > 0; B_T = 0 association "
                "semantics are only defined for the Monte-Carlo engine"
            )
        if rel_tol >= 1.0:
            raise ConfigError(f"rel_tol must be below 1, got {rel_tol!r}")
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
        self.q_tail = Quadrature(rel_tol=1e-11, abs_tol=1e-15,
                                 breakpoints=(self.vmap.v_m,))

        # the laws close over what they use, not over self, and look up the
        # module's distance and blockage laws at call time: a dropped engine
        # is freed at once, without the cyclic collector
        vmap = self.vmap
        beta = cfg.blockage.beta(g.h_A, g.h_U)

        def fz(v):
            return distance_pdf(v, vmap, g.v_0, g.r_d)

        def los(v):
            z, w = fz(v)
            return z, w * kappa_los(z, beta, g.delta_h)

        def nlos(v):
            z, w = fz(v)
            return z, w * kappa_nlos(z, beta, g.delta_h)

        def path_gain(amp, k_a, alpha):
            return lambda y: amp * np.exp(-k_a * y) * y ** (-alpha)

        # gain atoms of probability zero contribute nothing to the outer sums
        des_g = np.asarray(self.pmf_desired.gains)
        des_p = np.asarray(self.pmf_desired.probs)
        des_g, des_p = des_g[des_p > 0], des_p[des_p > 0]
        int_g = np.asarray(self.pmf_interf.gains)
        int_p = np.asarray(self.pmf_interf.probs)
        int_g, int_p = int_g[int_p > 0], int_p[int_p > 0]
        one = np.asarray([1.0])
        self._ev = {}
        for i, (event, density, cols) in enumerate(zip(
                EVENTS, (los, nlos, fz), ([0], [1], [0, 1]))):
            thz = event != "R"
            row = {f: col[i].item() for f, col in links._asdict().items()}
            self._ev[event] = dict(
                row, density=density,
                path_gain=path_gain(row["amp"], row["k_a"], row["alpha"]),
                cols=cols, count=self.n_thz if thz else self.n_rf,
                gains=des_g if thz else one, probs=des_p if thz else one,
                int_gains=int_g if thz else one, int_probs=int_p if thz else one,
                # competing tiers (count, classes), RF first; the server's
                # own tier is one AP short and lists its class first
                own=int(thz),
                tiers=((self.n_rf - (not thz), "R"),
                       (self.n_thz - thz, "NL" if event == "N" else "LN")))

        def los_nlos(v):
            return np.column_stack([los(v)[1], nlos(v)[1]])

        # LOS and NLOS tail masses beyond a lower limit given in v
        self.tail = TailIntegral(los_nlos, 0.0, vmap.v_max, self.q_tail)
        self._assoc: Optional[TierMetrics] = None
        # per event, the final panels' edges (in v) of its association
        # integral, where every later outer integral of the event starts
        self._panels: dict[str, tuple] = {}
        # per event, the outer nodes whose serving table has been built,
        # sorted, and their tables in the same order (``_table_at``)
        self._tables: dict[str, tuple] = {}
        # per serving tier (``own``), the rate's grid, and per interferer
        # class, the rate's bracket table on its tier's grid, built on first
        # use
        self._grids: dict[int, np.ndarray] = {}
        self._brackets: dict[str, TailIntegral] = {}

    # -- serving-distance machinery --------------------------------------------

    def _integrate_over_serving(self, f, cuts):
        """int f(v) dv over [0, v_max], on panels cut at ``cuts`` (in v);
        the ``integrate`` result."""
        q = replace(self.q_outer, breakpoints=tuple(cuts))
        return integrate(f, 0.0, self.vmap.v_max, q)

    def _event_cuts(self, event: str) -> tuple:
        """The event's breakpoints mapped into v."""
        return tuple(self.vmap.v(np.array(self._event_breakpoints(event))))

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

    def _serving_table(self, event: str, v) -> ServingTable:
        """The ``ServingTable`` of one association event at the outer nodes
        v (X,) in [0, v_max], whose serving distances x the serving class's
        density gives with its weight in v: one lower limit per class of a
        competing tier with APs, v itself for the serving class, else the
        exclusion boundary ``e_<event><c>(x)`` mapped into v, and one lookup
        of ``self.tail`` for all of them, a class's mass being the sum of
        its columns (``cols``: LOS, NLOS, or both for RF).  The weight w =
        count times the serving class's density, times each competing tier's
        summed mass to the power of its AP count.  These masses are the only
        ones the engine uses: the serving tier's are also L_I's denominator
        (``_laplace``)."""
        ev = self._ev[event]
        x, w = ev["density"](v)
        classes = [c for count, cs in ev["tiers"] if count > 0 for c in cs]
        lo = {c: v if c == event else self.vmap.v(
            getattr(self.excl, "e_" + (event + c).lower())(x))
            for c in classes}
        mass = {}
        if classes:
            cols = self.tail(np.concatenate([lo[c] for c in classes]))
            for k, c in enumerate(classes):
                mass[c] = cols[k * v.size:(k + 1) * v.size,
                               self._ev[c]["cols"]].sum(axis=1)
        w = ev["count"] * w
        for count, cs in ev["tiers"]:
            if count > 0:
                # np.power, not **: a float's ** is libm's pow, which can
                # differ in the last bit from numpy's on arrays
                w = w * np.power(sum(mass[c] for c in cs), count)
        return ServingTable(x, w, lo, mass)

    def _table_at(self, event: str, vs) -> ServingTable:
        """The ``ServingTable`` of one outer sweep's nodes vs (X,), each node's
        entry built once per event.  The event's store keeps the nodes built so
        far, sorted, with their table in the same order: a sweep whose nodes it
        holds is gathered by one ``searchsorted``, and the nodes it lacks are
        built and merged in.  As every outer integral of the event starts on
        the same panels and halves panels the same way, a panel evaluated twice
        gives the same nodes bit for bit."""
        store = self._tables.get(event)
        new = vs
        if store is not None:
            keys, table = store
            at = np.searchsorted(keys, vs)
            found = keys[np.minimum(at, keys.size - 1)] == vs
            if found.all():
                return table.take(at)
            new = vs[~found]
        built = self._serving_table(event, new)
        keys, table = (new, built) if store is None else (
            np.concatenate([keys, new]), table.concat(built))
        order = np.argsort(keys, kind="stable")
        keys, table = keys[order], table.take(order)
        self._tables[event] = keys, table
        if new.size == vs.size:
            return built
        return table.take(np.searchsorted(keys, vs))

    def assoc_probabilities(self) -> TierMetrics:
        if self._assoc is not None:
            return self._assoc
        if self.n_thz == 0:
            self._assoc = TierMetrics(0.0, 0.0, 1.0)
            # no association integral to start from
            self._panels["R"] = self._event_cuts("R")
            return self._assoc
        vals, error = [], 0.0
        for event in EVENTS:
            if event == "R" and self.n_rf == 0:
                vals.append(0.0)
                continue
            res = self._integrate_over_serving(
                lambda x, e=event: self._table_at(e, x).w,
                self._event_cuts(event))
            vals.append(res.value)
            error += res.error
            self._panels[event] = res.breakpoints
        if not abs(sum(vals) - 1.0) <= error + PROBABILITY_SPILL_TOL:
            raise NumericalInconsistency(
                f"association probabilities sum to {float(sum(vals))!r}, "
                f"not 1 within their error {error!r}")
        self._assoc = TierMetrics(*vals)
        return self._assoc

    # -- interference Laplace transforms ----------------------------------------

    def _laplace(self, event: str, table: ServingTable, shape, bracket):
        """The one L_I transform of coverage and rate: the Taylor
        coefficients ``shape`` = (K+1, X, M) of L_I = (sum_c bracket_c /
        sum_c mass_c)^n at the serving distances of ``table`` (X,), the sums
        over the serving tier's interferer classes c, n its interferer
        count.  ``bracket(c)`` gives class c's bracket (K+1, X, M), the
        integral of its density times the interferer kernel beyond its lower
        limit; the caller's source sets how it is integrated.  The masses
        are the table's ``mass[c]``, looked up in ``self.tail`` with the
        serving weight, so L(0) = 1 to the bracket source's tolerance.  L_I
        is 1 without interferers.  Raises ``DegenerateEvent`` where an x has
        no interferer mass in ``table``, summed over the classes, although
        the event has interferers."""
        ev = self._ev[event]
        n_exp, classes = ev["tiers"][ev["own"]]
        if n_exp == 0:
            out = np.zeros(shape)
            out[0] = 1.0
            return out
        mass = sum(table.mass[c] for c in classes)
        bad = ~(mass > 0.0)
        if bad.any():
            raise DegenerateEvent(
                f"event {event} has interferers but no interferer mass at "
                f"serving distance {float(table.x[bad][0])!r}"
            )
        num = sum(bracket(c) for c in classes)
        return (Jet(num / mass[:, None]) ** float(n_exp)).coeffs

    def _laplace_coeffs(self, event: str, table: ServingTable, nu0,
                        order: int):
        """Coverage's L_I: Taylor coefficients (order+1, X, M) of the one
        L_I transform (``_laplace``) at the serving distances of ``table``
        (X,) and expansion points ``nu0`` (X, M), one row per x, with each
        class's bracket from one inner integral over all its x
        (``_segment_integral``) and its mass from ``table``."""
        nu0 = np.asarray(nu0, dtype=float)
        return self._laplace(
            event, table, (order + 1,) + nu0.shape,
            lambda c: self._segment_integral(c, table, nu0, order))

    def _segment_integral(self, c: str, table: ServingTable, nu0,
                          order: int):
        """Interferer class c's bracket (order+1, X, M) at the serving
        distances of ``table`` and expansion points ``nu0``, 0 where the
        table gives the class no mass: one ``integrate`` over the x with
        mass.

        Column x runs over [lo, v_max] in the smoothing variable, lo from
        the table, cut into pieces at ``_inner_breaks`` (z_m and four seeds
        near z_l).  Each piece [a, b] is mapped affinely onto u in [0, 1],
        and column x's integrand at u is the sum over its pieces of the
        integrand in v times (b - a), so all x share panels in u; in z the
        density's square-root endpoints would make every column refine with
        the worst one.  Each column is divided by the table's mass at x and
        multiplied back afterwards: all columns are O(1), so the max-norm
        tolerance holds per x, on the gain-averaged bracket.  The density's
        weight in v is multiplied by the width before it is divided by a
        tiny positive mass, so the quotient cannot overflow.  The kernel
        jets are accumulated one piece at a time, so the widest temporary
        has no piece axis."""
        seg = self._ev[c]
        density, path_gain, m = seg["density"], seg["path_gain"], seg["m"]
        gains, probs = seg["int_gains"], seg["int_probs"]
        k1 = order + 1
        num = np.zeros((k1,) + nu0.shape)
        idx = np.flatnonzero(table.mass[c] > 0.0)
        if idx.size == 0:
            return num
        lo, mass, nu = table.lo[c][idx], table.mass[c][idx], nu0[idx]
        vmap, breaks = self.vmap, self._inner_breaks
        # pieces per x: [lo, breakpoints above lo..., v_max], left-aligned
        # and padded with zero-width pieces at v_max
        first = np.searchsorted(breaks, lo, side="right")
        n_pieces = 1 + breaks.size - int(first.min())
        ends = np.append(breaks, vmap.v_max)
        inner = ends[np.minimum(first[:, None] + np.arange(n_pieces - 1),
                                breaks.size)]
        edges = np.column_stack([lo, inner, np.full(lo.size, vmap.v_max)])
        start = edges[:, :-1]                                  # (X, P)
        width = np.diff(edges, axis=1)

        def integrand(u):
            y, wt = density(start + width * u[:, None, None])  # (n, X, P)
            wt = wt * width / mass[:, None]
            c_m = path_gain(y) / m
            acc = np.zeros((u.size, k1) + nu.shape)
            for p in range(n_pieces):
                ker = _interferer_kernel(c_m[:, :, p], nu, gains, probs, m,
                                         order)
                ker *= wt[:, :, p, None]
                acc += ker.swapaxes(0, 1)
            return acc.reshape(u.size, -1)

        res = integrate(integrand, 0.0, 1.0, self.q_inner).value
        num[:, idx] = res.reshape(k1, idx.size, -1) * mass[:, None]
        return num

    # -- coverage and rate -------------------------------------------------------

    def _s_factor(self, event: str, xs, theta: float = 1.0):
        """s(x) = theta m / c(x), at unit threshold by default.  +inf,
        without a warning, where the serving power c(x) underflows or the
        threshold carries it past the float range."""
        ev = self._ev[event]
        with np.errstate(over="ignore", divide="ignore"):
            return theta * ev["m"] / ev["path_gain"](xs)

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

    def _coverage_live(self, event: str, x) -> np.ndarray:
        """Where P[SINR > theta | x] can be non-zero: where e^{-lambda} is 0
        in double at the largest desired gain (at the latest where the
        serving power underflows), so is every term."""
        ev = self._ev[event]
        s_vals = self._s_factor(event, x, self.cfg.radio.theta)
        return np.exp(-s_vals * (ev["noise"] / ev["gains"].max())) > 0.0

    def _coverage_kernel(self, event: str, table: ServingTable) -> np.ndarray:
        """P[SINR > theta | serving event, serving distance x] at the serving
        distances of ``table`` (X,)."""
        ev = self._ev[event]
        s_vals = self._s_factor(event, table.x, self.cfg.radio.theta)
        nu0 = s_vals[:, None] / ev["gains"]
        lc = self._laplace_coeffs(event, table, nu0, ev["m"] - 1)
        return self._assemble_ccdf(event, s_vals, lc)

    def _mean_snr(self, event: str, x):
        """snr(x) = c(x) E[g] / sigma^2, the mean SNR at serving distance x."""
        ev = self._ev[event]
        mean_g = float(ev["probs"] @ ev["gains"])
        return ev["m"] / self._s_factor(event, x) * mean_g / ev["noise"]

    def _rate_live(self, event: str, x) -> np.ndarray:
        """Where the mean SNR is at least ``_RATE_EPS``; elsewhere the rate
        kernel is taken as 0, an error below ``_RATE_EPS`` (see
        ``conditional_rate``)."""
        return self._mean_snr(event, x) >= _RATE_EPS

    def _rate_grid(self, event: str) -> np.ndarray:
        """The rate's grid z_j for the serving tier of ``event``, the same
        for each of the tier's classes, built on first use (see
        ``conditional_rate``)."""
        ev = self._ev[event]
        tier = ev["own"]
        if tier not in self._grids:
            z_l = np.array([self.sup.z_l])
            snr_max = max(float(self._mean_snr(c, z_l)[0])
                          for c in ev["tiers"][tier][1])
            eps = _RATE_TRUNC * self.q_outer.rel_tol
            lo = math.log(eps / max(snr_max, 1.0))
            n = math.ceil((math.log(-math.log(eps)) - lo) / self.rate_step)
            self._grids[tier] = (np.exp(lo + self.rate_step * np.arange(n + 1))
                                 / ev["noise"])
        return self._grids[tier]

    def _rate_bracket(self, c: str) -> TailIntegral:
        """The rate's bracket table of interferer class c, built on first
        use: a ``TailIntegral`` in v with, per z_j of the class's tier grid,
        the column of the class's density times dz/dv times its interferer
        kernel at order 0 (``_interferer_kernel``).  The class's mass, L_I's
        denominator, is not a column: it is the serving table's, from
        ``self.tail``."""
        if c not in self._brackets:
            seg = self._ev[c]
            density, path_gain, m = seg["density"], seg["path_gain"], seg["m"]
            gains, probs = seg["int_gains"], seg["int_probs"]
            z = self._rate_grid(c)

            def columns(v):
                y, w = density(v)
                ker = _interferer_kernel(path_gain(y) / m, z, gains, probs,
                                         m, 0)[0]
                ker *= w[:, None]
                return ker

            self._brackets[c] = TailIntegral(columns, 0.0, self.vmap.v_max,
                                             self.q_tail)
        return self._brackets[c]

    def _rate_laplace(self, event: str, table: ServingTable, z) -> np.ndarray:
        """The rate's L_I (X, Z) at the serving distances of ``table`` and
        the grid ``z`` (Z,) of the event's tier: the one L_I transform
        (``_laplace``) at order 0, with each class's bracket from one lookup
        of its bracket table at the table's ``lo[c]`` and its mass from
        ``table``."""
        def bracket(c):
            return self._rate_bracket(c)(table.lo[c])[None]

        return self._laplace(event, table, (1, table.x.size, z.size),
                             bracket)[0]

    def _rate_kernel(self, event: str, table: ServingTable) -> np.ndarray:
        """E[ln(1 + SINR) | serving event, serving distance x] at the
        serving distances of ``table`` (X,): the trapezoid sum of Hamdi's
        lemma in lambda = ln z (see ``conditional_rate``)."""
        ev = self._ev[event]
        m, gains, probs = ev["m"], ev["gains"], ev["probs"]
        s = self._s_factor(event, table.x)[:, None]         # m / c(x)
        z = self._rate_grid(event)
        # 1 - M_S(z_j) by expm1/log1p: small z keeps its digits
        one_minus_ms = -sum(p * np.expm1(-m * np.log1p(z * g / s))
                            for g, p in zip(gains, probs))
        g_vals = one_minus_ms * self._rate_laplace(event, table, z)
        return self.rate_step * (g_vals @ np.exp(-z * ev["noise"]))

    def _expect_over_serving(self, event: str, kernel, live) -> float:
        """(1/A) * int w(v) kernel(x(v)) dv over [0, v_max].

        Starts on the final panels of the event's association integral:
        w is a factor of this integrand too, and those panels are where it
        needed resolution.  ``kernel(event, table)`` takes the
        ``ServingTable`` of one outer sweep's nodes where w > 0 and
        ``live(event, x)`` holds at their serving distance x, and returns
        one value per node; the integrand is 0 at every other node.  Raises
        ``DegenerateEvent`` when the association probability A is
        ``<= DEGENERATE_EVENT_TOL``.
        """
        a = self.assoc_probabilities().get(event)
        if a <= DEGENERATE_EVENT_TOL:
            raise DegenerateEvent(
                f"association probability for event {event} is {a!r}")

        def outer(vs):
            table = self._table_at(event, vs)
            out = np.zeros_like(vs)
            sel = (table.w > 0.0) & live(event, table.x)
            if sel.any():
                out[sel] = table.w[sel] * kernel(event, table.take(sel))
            return out

        return self._integrate_over_serving(outer, self._panels[event]).value / a

    def conditional_coverage(self, event: str) -> float:
        val = self._expect_over_serving(event, self._coverage_kernel,
                                        self._coverage_live)
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
        M_S(z) = sum_g p_g (1 + z c g / m)^-m in closed form.  L_I is the
        same transform as coverage's (``_laplace``), with the same class
        densities and interferer kernel (``_interferer_kernel``), needed at
        order 0 only: its brackets are read from one table per interferer
        class (``_rate_bracket``) instead of inner integrals.

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
        serving tier, and its ends are set by eps = ``_RATE_TRUNC`` rel_tol,
        ``_RATE_TRUNC`` = 1e-3: from lambda_0 = ln eps - ln max(P_max,
        sigma^2), P_max the tier's largest mean serving power c(z_l) E[g],
        to the first node at or past ln(-ln(eps) / sigma^2).  As
        1 - M_S(z) <= min(1, z E[S]) and L_I <= 1, the part below lambda_0
        is at most eps E[S] / max(P_max, sigma^2) <= eps min(1, snr(x)),
        snr(x) the mean SNR c(x) E[g] / sigma^2, and the part above the
        grid, where z sigma^2 >= -ln eps, at most
        min(E[S] int e^{-z sigma^2} dz, E_1(-ln eps))
        <= eps min(snr(x), 1 / -ln eps).  So each end cuts at most
        eps min(1, snr(x)) off the mean log at x.  Against a grid from
        1e-13 to z sigma^2 = 40, every conditional rate moved by at most
        1.03e-3 rel_tol on the configurations above, at rel_tol 1e-4 and
        1e-7.
        A serving distance with snr(x) < ``_RATE_EPS`` = 1e-13 is given
        exactly 0 (``_rate_live``), as by the Monte-Carlo engine where the
        serving power all but underflows: an error below ``_RATE_EPS``,
        since E[ln(1 + SINR)] <= ln(1 + snr(x)) <= snr(x) by Jensen's
        inequality.

        The mean log is then averaged over the serving distance.  Raises
        ``NumericalInconsistency`` if it comes out negative.
        """
        val = self._expect_over_serving(event, self._rate_kernel,
                                        self._rate_live)
        if val < 0.0:
            raise NumericalInconsistency(
                f"conditional mean log-rate for event {event} is {val!r}"
            )
        return self._ev[event]["bw"] / math.log(2.0) * val

    def _per_event(self, fn) -> tuple[TierMetrics, float]:
        assoc = self.assoc_probabilities()
        vals = TierMetrics(*(fn(e) if a > DEGENERATE_EVENT_TOL else math.nan
                             for e, a in zip(EVENTS, assoc)))
        total = sum(a * v for a, v in zip(assoc, vals) if not math.isnan(v))
        return vals, total

    def coverage(self) -> CoverageReport:
        cond, total = self._per_event(self.conditional_coverage)
        nan = TierMetrics(*(math.nan for _ in EVENTS))
        return CoverageReport(self.assoc_probabilities(), cond, total,
                              nan, math.nan)

    def report(self) -> CoverageReport:
        cond_cov, total_cov = self._per_event(self.conditional_coverage)
        cond_rate, total_rate = self._per_event(self.conditional_rate)
        return CoverageReport(self.assoc_probabilities(), cond_cov, total_cov,
                              cond_rate, total_rate)
