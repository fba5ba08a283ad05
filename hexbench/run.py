"""hexnet benchmark: one closed-loop client drives the package's public API,
one sweep point after another, and checks every output.

    python3 hexbench/run.py --workload coverage_sweep --seed 1 --seconds 35 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs rounds of the grid untraced for half of
``--seconds``, the same rounds traced, and reports the per-layer metrics per
round.

A run evaluates whole rounds of the grid until ``--seconds`` have passed (at
least ``Workload.min_rounds``), so its last round may run past them.  The set-up probes run
between points at even intervals of the run; their time counts towards
``--seconds`` but not towards the point metrics.  Per-run details
(environment, samples, spans) go to ``.hexbench-out/``; the last line of
standard output is the JSON result.
The command exits 1 if any point raised or failed its correctness check.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP threads; fixed before numpy loads so every run uses the same
#: count (the benchmark is a single-threaded closed loop)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "hexnet").is_dir():
    sys.exit(f"error: no hexnet sources under {ROOT / 'src'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".hexbench-out"
#: set-up probes per run; setup_s is their median
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sweep:
    """Timings and verdicts of the points of one or more grid rounds."""

    labels: list = field(default_factory=list)    # point labels, by index
    seconds: dict = field(default_factory=dict)   # point index -> [s per round]
    outputs: list = field(default_factory=list)   # cells per evaluation (None: raised)
    failures: list = field(default_factory=list)  # (label, message)
    attempted: int = 0
    wall_s: float = 0.0
    rounds: int = 0

    def by_label(self) -> dict:
        return {self.labels[i]: ts for i, ts in self.seconds.items()}

    def samples(self) -> list:
        """Seconds of every evaluation that returned."""
        return [t for ts in self.seconds.values() for t in ts]


# -- environment ----------------------------------------------------------------

def environment() -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {name: int(libc.sysconf(code))
              for name, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- measurements ---------------------------------------------------------------

class SetupProbes:
    """Set-up timings in fresh interpreters (``setup_probe.py``).

    The host's speed drifts in spells of seconds, so the probes are spread
    evenly over a run instead of taken back to back: one spell then sets one
    probe, not the median.
    """

    def __init__(self, span_s: float, count: int = SETUP_REPEATS):
        self.count = count
        self.interval = span_s / count
        self.next_at = time.perf_counter()
        self.runs = []

    def probe(self) -> float:
        """Take one probe; returns the wall seconds it cost the caller."""
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                             cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S)
        self.runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        self.next_at += self.interval
        return time.perf_counter() - t0

    def due(self) -> float:
        """Take a probe if one is due; returns the wall seconds it cost."""
        if len(self.runs) < self.count and time.perf_counter() >= self.next_at:
            return self.probe()
        return 0.0

    def medians(self) -> dict:
        while len(self.runs) < self.count:
            self.probe()
        return {k: statistics.median(r[k] for r in self.runs) for k in self.runs[0]}


def run_point(workload, request, point, base, seed_key, tracer):
    """Evaluate one point; returns (seconds, cells).  ``request`` numbers the
    evaluation; its spans carry it."""
    cfg = point.config(base)
    tracer.point = request
    tracer.begin("point")
    t0 = time.perf_counter()
    try:
        if workload.kind == "mc":
            cells = workloads.mc_point(cfg, seed_key, tracer)
        else:
            cells = workloads.analytic_point(workload.kind, cfg, tracer,
                                             workload.rel_tol)
    finally:
        elapsed = time.perf_counter() - t0
        tracer.end()
    return elapsed, cells


def sweep(workload, seed, reference, tol, tracer, *, rounds=None, until=None,
          probes=None):
    """Whole rounds over the grid: exactly ``rounds`` of them, or else at
    least ``workload.min_rounds`` and then more until the ``until`` clock
    reading has passed (the last round may run past it).

    ``probes`` (SetupProbes) take their due probes between points; their
    time is left out of ``wall_s``.  Analytic outputs are checked every
    round; Monte-Carlo estimates (seed ``[seed, point, round]``) are pooled
    per point and checked once at the end.
    """
    base = workloads.default_config()
    out = Sweep(labels=[p.label for p in workload.points])
    estimates = {}
    paused = 0.0
    start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None:
            if r == rounds:
                break
        elif r >= workload.min_rounds and time.perf_counter() >= until:
            break
        for idx, point in enumerate(workload.points):
            out.attempted += 1
            ref = reference[workload.name].get(point.label)
            try:
                if ref is None:
                    raise KeyError(f"no reference stored for {point.label}")
                secs, cells = run_point(workload, out.attempted - 1, point, base,
                                        [seed, idx, r], tracer)
            except Exception as exc:  # a raising point is a counted failure
                out.outputs.append(None)
                out.failures.append((point.label, f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                if probes is not None:
                    paused += probes.due()
            out.outputs.append(cells)
            out.seconds.setdefault(idx, []).append(secs)
            if workload.kind == "mc":
                estimates.setdefault(idx, []).append(cells)
            elif bad := workloads.check_analytic(cells, ref, *tol):
                out.failures.append((point.label, "; ".join(bad)))
        r += 1
    out.wall_s = time.perf_counter() - start - paused
    out.rounds = r
    for idx, ests in estimates.items():
        label = out.labels[idx]
        if bad := workloads.check_mc(workloads.pool_mc(ests),
                                     reference[workload.name][label]):
            out.failures.append((label, "; ".join(bad)))
    return out


def tail(samples):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND
        return xs[k - 1], 100.0 * k / n, n
    return xs[-1], 100.0, n


def end_to_end(workload, s: Sweep, setup: dict) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra figures for the report)."""
    samples = s.samples()
    n_ok = len(samples)
    p_tail, pct, count = tail(samples) if n_ok else (math.nan, math.nan, 0)
    metrics = {
        "setup_s": setup["setup_s"],
        "points_per_s": n_ok / s.wall_s,
        # median over the grid's points of each point's mean over the rounds:
        # a point's samples straddle the host's fast and slow spells, and
        # the median of all samples would jump between the two
        "point_s_p50": (statistics.median(statistics.fmean(ts)
                                          for ts in s.seconds.values())
                        if n_ok else math.nan),
        "point_s_tail": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "tail_percentile": pct,
        "tail_samples": count,
        "fail_frac": len(s.failures) / s.attempted,
        "mc_trials_per_s": (workloads.MC_TRIALS * metrics["points_per_s"]
                            if workload.kind == "mc" else None),
    }
    return metrics, extra


def per_layer(tr: tracing.Tracer, setup: dict, plain: Sweep, traced: Sweep) -> dict:
    """Per-layer metrics per round of the grid (every round does the same work)."""
    def per_round(d):
        return defaultdict(float, {k: v / traced.rounds for k, v in d.items()})

    c, self_s, total_s = per_round(tr.counts), per_round(tr.self_s), per_round(tr.total_s)
    q, t = tracing.QUAD, tracing.TAIL
    m = {
        "params.load_s": setup["load_s"],
        "analytic.init_s": setup["init_s"],
        "analytic.assoc_s": total_s["analytic.assoc"],
        "analytic.coverage_s": total_s["analytic.coverage"],
        "analytic.rate_s": total_s["analytic.rate"],
    }
    for level in tracing.QUAD_LEVELS:
        name = f"{q}.{level}"
        nodes = c[name + ".nodes"]
        m[name + ".calls"] = c[name + ".calls"]
        m[name + ".nodes"] = nodes
        m[name + ".sweeps"] = c[name + ".sweeps"]
        m[name + ".kept_frac"] = c[name + ".kept_nodes"] / nodes if nodes else 0.0
        m[name + ".self_s"] = self_s[name]
    m.update({
        t + ".build_nodes": c[t + ".build_nodes"],
        t + ".lookups": c[t + ".lookups"],
        t + ".lookup_points": c[t + ".lookup_points"],
        t + ".s": self_s[t],
    })
    for name, fields in ((tracing.AFFINE_POWER, ("calls", "elements", "bytes_computed")),
                         (tracing.JET_POW, ("calls", "elements")),
                         (tracing.EXCLUSION, ("calls", "points")),
                         (tracing.KAPPA, ("calls", "points")),
                         (tracing.DISTANCE_PDF, ("calls", "points"))):
        for f in fields:
            m[f"{name}.{f}"] = c[f"{name}.{f}"]
        m[name + ".s"] = self_s[name]
    m.update({
        "montecarlo.estimate_s": total_s[tracing.MC_ESTIMATE],
        "montecarlo.self_s": self_s[tracing.MC_ESTIMATE],
        tracing.MC_BYTES: c[tracing.MC_BYTES],
        tracing.SAMPLE + ".trials": c[tracing.SAMPLE + ".trials"],
        tracing.SAMPLE + ".s": self_s[tracing.SAMPLE],
        tracing.FADING + ".draws": c[tracing.FADING + ".draws"],
        tracing.FADING + ".s": self_s[tracing.FADING],
        "trace.spans": len(tr.span_id) / traced.rounds,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
    })
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("kept_frac") or name.endswith("overhead_frac"):
        return "fraction"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def same_outputs(a: list, b: list) -> bool:
    """Bit-identical cells, NaN matching NaN."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x is None) != (y is None):
            return False
        if x is None:
            continue
        if x.keys() != y.keys():
            return False
        for k in x:
            if np.float64(x[k]).tobytes() != np.float64(y[k]).tobytes():
                return False
    return True


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    ref_doc = workloads.load_reference()
    reference = ref_doc["points"]
    tol = workloads.engine_tolerances(workload.rel_tol)
    env = environment()
    start = time.perf_counter()

    if args.trace:
        setup = SetupProbes(0.0).medians()
        plain = sweep(workload, args.seed, reference, tol, tracing.NullTracer(),
                      until=start + args.seconds / 2)
        tr = tracing.Tracer()
        with tr:
            traced = sweep(workload, args.seed, reference, tol, tr,
                           rounds=plain.rounds)
        failures = plain.failures + traced.failures
        if not same_outputs(plain.outputs, traced.outputs):
            failures.append(("traced run", "outputs differ from the untraced run"))
        attempted = plain.attempted + traced.attempted
        metrics = per_layer(tr, setup, plain, traced)
        extra = {"rounds": plain.rounds, "untraced_wall_s": plain.wall_s,
                 "traced_wall_s": traced.wall_s}
        samples = {"untraced": plain.by_label(), "traced": traced.by_label()}
    else:
        probes = SetupProbes(args.seconds)
        s = sweep(workload, args.seed, reference, tol, tracing.NullTracer(),
                  until=start + args.seconds, probes=probes)
        setup = probes.medians()
        failures, attempted = s.failures, s.attempted
        metrics, extra = end_to_end(workload, s, setup)
        extra.update(rounds=s.rounds, wall_s=s.wall_s)
        samples = {"point_s": s.by_label()}

    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "reference_commit": ref_doc["commit"],
              "setup": setup, "extra": extra, "samples": samples,
              "failures": failures, "result": result}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tr.write(OUT_DIR / f"{stem}-spans.npz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {env['blas_threads']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}")
    for label, message in failures:
        print(f"FAIL {label}: {message}")
    for name, v in metrics.items():
        print(f"  {name:48s} {v:.6g} {unit_of(name)}")
    if not args.trace:
        print(f"  {'point_s_tail percentile':48s} p{extra['tail_percentile']:.1f} "
              f"of {extra['tail_samples']} samples ({extra['rounds']} rounds)")
        mc = extra["mc_trials_per_s"]
        print(f"  {'mc_trials_per_s':48s} "
              + (f"{mc:.6g} 1/s" if mc is not None else "n/a (no Monte-Carlo)"))
        print(f"  {'fail_frac':48s} {extra['fail_frac']:.6g} fraction "
              f"({len(failures)} of {attempted})")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
