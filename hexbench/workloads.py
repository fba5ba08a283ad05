"""Workload grids, the engine calls behind each sweep point, and the
correctness checks of their outputs.

Every point builds its own ``AnalyticEngine`` (never the module-level cache in
``hexnet.analytic``), so no state carries over from one point to the next.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

from hexnet import AnalyticEngine, default_config, montecarlo, with_updates
from hexnet.cli import VALIDATE_SLACK_PROB, VALIDATE_SLACK_RATE

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Monte-Carlo trials per estimate() call; a run validates each point on
#: the pooled trials of all its rounds (at least MC_MIN_ROUNDS x 50k)
MC_TRIALS = 50_000
MC_MIN_ROUNDS = 3

#: the package's default engine tolerance
DEFAULT_REL_TOL = inspect.signature(AnalyticEngine).parameters["rel_tol"].default
#: rate_sweep's engine tolerance: at the default a sigma_eps point takes
#: ~30 s, too long to time it several times in a run.  Its kernel calls stay
#: about 30 times as wide as coverage_sweep's.
RATE_REL_TOL = 1e-4

#: the reference check allows this many multiples of the engine's rel_tol
#: (outer integrals run at rel_tol; a metric combines several of them)
REF_RTOL_FACTOR = 10.0
#: and this many multiples of the outer absolute tolerance
REF_ATOL_FACTOR = 10.0

COVERAGE_KEYS = ("A_L", "A_N", "A_R", "Pcov_L", "Pcov_N", "Pcov_R", "Pcov")
RATE_KEYS = COVERAGE_KEYS + ("tau_L", "tau_N", "tau_R", "tau")


@dataclass(frozen=True)
class Point:
    """One sweep point: config overrides of the shipped baseline."""

    overrides: tuple  # ((field, value), ...)

    @property
    def label(self) -> str:
        return ",".join(f"{k}={v:g}" for k, v in self.overrides) or "baseline"

    def config(self, base):
        updates = dict(self.overrides)
        if "sigma_eps" in updates:  # degrees, on both ends of the link
            sig = math.radians(updates.pop("sigma_eps"))
            updates.update(sigma_eps_T=sig, sigma_eps_U=sig)
        return with_updates(base, **updates) if updates else base


def _pt(**overrides) -> Point:
    return Point(tuple(overrides.items()))


# The figure axes are sampled so that three rounds of the sweep fit in a run
# of 35 s.
# fig5 axis: THz bias B_T (linear), 1e-2 .. 1e2, one value per decade
_BIAS_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
# fig6 axis: THz fraction delta_T at N_A in {10, 20, 30}
_DELTA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)

COVERAGE_POINTS = (
    tuple(_pt(B_T=b) for b in _BIAS_GRID)
    + tuple(_pt(N_A=n, delta_T=d) for n in (10, 20, 30) for d in _DELTA_GRID)
    # fig8 axis: UE offset v_0 (off-centre: arccos branch of the distance law)
    + (_pt(v_0=10.0),)
)

RATE_POINTS = (
    _pt(),
    _pt(N_A=10, delta_T=0.5),
    _pt(sigma_eps=10.0),
)

# The validate rule's rate slack is 1%.  Where the rate estimate of 150k
# trials (three rounds) has a standard deviation above about a third of that
# (few APs, mostly RF, far off centre) the rule fails by chance too often, so
# those points are left out.  Two N_A=30 points per cheaper one keep the
# median and the tail inside the N_A=30 cost cluster.
MC_POINTS = (
    _pt(N_A=30, delta_T=0.8),
    _pt(N_A=30, delta_T=1.0),
    _pt(delta_T=0.8, v_0=40.0),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "coverage", "rate" or "mc"
    points: tuple
    rel_tol: float = DEFAULT_REL_TOL  # engine tolerance of analytic points
    min_rounds: int = 1  # rounds of the grid a run makes at least


WORKLOADS = {
    "coverage_sweep": Workload("coverage_sweep", "coverage", COVERAGE_POINTS),
    "rate_sweep": Workload("rate_sweep", "rate", RATE_POINTS, RATE_REL_TOL),
    "mc_sweep": Workload("mc_sweep", "mc", MC_POINTS, min_rounds=MC_MIN_ROUNDS),
}


# -- engine calls ---------------------------------------------------------------

def _report_cells(rep, keys) -> dict:
    cells = {
        "A_L": rep.assoc.los, "A_N": rep.assoc.nlos, "A_R": rep.assoc.rf,
        "Pcov_L": rep.cond_coverage.los, "Pcov_N": rep.cond_coverage.nlos,
        "Pcov_R": rep.cond_coverage.rf, "Pcov": rep.total_coverage,
        "tau_L": rep.cond_rate.los, "tau_N": rep.cond_rate.nlos,
        "tau_R": rep.cond_rate.rf, "tau": rep.total_rate,
    }
    return {k: float(cells[k]) for k in keys}


def analytic_point(kind: str, cfg, tracer, rel_tol: float = DEFAULT_REL_TOL) -> dict:
    """Build an engine and evaluate one point: coverage() or report()."""
    tracer.begin("analytic.init")
    engine = AnalyticEngine(cfg, rel_tol)
    tracer.end()
    tracer.bind_engine(engine)
    tracer.begin("analytic.assoc")
    engine.assoc_probabilities()
    tracer.end()
    if kind == "coverage":
        return _report_cells(engine.coverage(), COVERAGE_KEYS)
    return _report_cells(engine.report(), RATE_KEYS)


def mc_point(cfg, seed, tracer) -> dict:
    tracer.begin("montecarlo.estimate")
    sim = montecarlo.estimate(cfg, MC_TRIALS, seed, workers=1)
    tracer.end()
    return {
        "n": float(sim.n_trials),
        "mc_A_L": sim.assoc.los, "mc_A_N": sim.assoc.nlos,
        "mc_Pcov": sim.coverage.mean, "mc_Pcov_ci": sim.coverage.half_width_95,
        "mc_tau": sim.rate.mean, "mc_tau_ci": sim.rate.half_width_95,
    }


def pool_mc(estimates: list) -> dict:
    """One estimate from independent equal-size ones: the mean of the means,
    with the 95% half-widths combined as for an average of independent
    variables, and the association CI of the pooled trial count."""
    k = len(estimates)
    n = sum(e["n"] for e in estimates)
    mean = {key: math.fsum(e[key] for e in estimates) / k
            for key in ("mc_A_L", "mc_A_N", "mc_Pcov", "mc_tau")}
    return {
        "mc_A_T": mean["mc_A_L"] + mean["mc_A_N"],
        "mc_A_T_ci": _binomial_ci(mean["mc_A_L"], n) + _binomial_ci(mean["mc_A_N"], n),
        "mc_Pcov": mean["mc_Pcov"],
        "mc_Pcov_ci": math.sqrt(math.fsum(e["mc_Pcov_ci"] ** 2 for e in estimates)) / k,
        "mc_tau": mean["mc_tau"],
        "mc_tau_ci": math.sqrt(math.fsum(e["mc_tau_ci"] ** 2 for e in estimates)) / k,
    }


def _binomial_ci(freq: float, n: float) -> float:
    """The CI ``hexnet validate`` puts on an association frequency."""
    return 1.96 * math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


# -- correctness ----------------------------------------------------------------

def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_analytic(cells: dict, ref: dict, rel_tol: float, abs_tol: float) -> list:
    """Mismatches of one analytic point against its stored reference.

    NaN (a degenerate association event) must stay NaN.
    """
    bad = []
    for key, want in ref.items():
        got = cells[key]
        if want is None or (isinstance(want, float) and math.isnan(want)):
            ok = math.isnan(got)
        else:
            tol = (REF_RTOL_FACTOR * rel_tol * abs(want)
                   + REF_ATOL_FACTOR * abs_tol)
            ok = abs(got - want) <= tol
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad


def check_mc(cells: dict, ref: dict) -> list:
    """The ``hexnet validate`` rule on a pooled estimate (``pool_mc``):
    |analytic - mc| <= CI + slack."""
    checks = (
        ("A_T", ref["A_L"] + ref["A_N"], cells["mc_A_T"],
         cells["mc_A_T_ci"] + VALIDATE_SLACK_PROB),
        ("Pcov", ref["Pcov"], cells["mc_Pcov"],
         cells["mc_Pcov_ci"] + VALIDATE_SLACK_PROB),
        ("tau", ref["tau"], cells["mc_tau"],
         cells["mc_tau_ci"] + VALIDATE_SLACK_RATE * abs(cells["mc_tau"])),
    )
    return [f"{name}: analytic {an!r}, mc {mc!r}, tol {tol!r}"
            for name, an, mc, tol in checks if not abs(an - mc) <= tol]


def engine_tolerances(rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, float]:
    """(rel_tol, abs_tol) of the outer integrals of an engine built with rel_tol."""
    q = AnalyticEngine(default_config(), rel_tol).q_outer
    return q.rel_tol, q.abs_tol
