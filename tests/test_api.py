"""Guards on the names other code binds: the package's public names, and every
name the benchmark's tracer (hexbench/tracing.py) replaces during a traced
run, which must stay bound on its owner and be looked up at call time."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hexnet
from hexnet import with_updates
from hexnet.analytic import AnalyticEngine
from hexnet.montecarlo import estimate
from hexnet.numerics.jets import Jet

TRACING = Path(__file__).resolve().parents[1] / "hexbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("hexbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names():
    assert sorted(hexnet.__all__) == [
        "AnalyticEngine", "CoverageReport", "McEstimate", "NetworkConfig",
        "SimulationSummary", "TierMetrics", "default_config",
        "default_config_text", "estimate", "load_config", "serialize_config",
        "with_updates",
    ]
    for name in hexnet.__all__:
        assert hasattr(hexnet, name), name


def test_traced_names_stay_bound():
    names = _tracing().patched_names()
    assert (Jet, "__pow__") in names
    for owner, attr in names:
        assert attr in owner.__dict__, (owner, attr)


def test_tracer_installs_and_uninstalls(table3):
    # every traced name is replaced by a wrapper of the original while the
    # tracer is installed, each layer's counters see work, and uninstalling
    # restores every original
    tracing = _tracing()
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr in tracing.patched_names()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
        cfg = with_updates(table3, N_A=10, delta_T=0.5)
        eng = AnalyticEngine(cfg, rel_tol=1e-4)
        tracer.bind_engine(eng)
        eng.coverage()
        sim = estimate(cfg, 1000, seed=1)
    finally:
        tracer.uninstall()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    for name in ("numerics.quadrature.outer.calls",
                 "numerics.quadrature.inner.calls",
                 "numerics.quadrature.tail.lookups",
                 "numerics.jets.affine_power.calls", "exclusion.calls",
                 "propagation.kappa.calls", "geometry.distance_pdf.calls",
                 "propagation.fading.draws"):
        assert tracer.counts[name] > 0, name
    # the sampler saw every trial once, and every AP of the serving tier
    # of every trial drew one fading value
    assert tracer.counts["geometry.sample.trials"] == 1000
    n_l, n_n, n_r = (e.n_trials for e in sim.cond_coverage)
    assert tracer.counts["propagation.fading.draws"] == (
        (n_l + n_n) * cfg.geometry.n_thz + n_r * cfg.geometry.n_rf)


def test_traced_report_equals_untraced(table3):
    # the traced run of a full report() reaches the outer and inner levels,
    # builds and looks up tail tables, the rate's bracket tables among them,
    # and makes no call to the retired rate level; its outputs equal an
    # untraced run's, bit for bit
    tracing = _tracing()
    plain = AnalyticEngine(table3, rel_tol=1e-4).report()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        eng = AnalyticEngine(table3, rel_tol=1e-4)
        tracer.bind_engine(eng)
        traced = eng.report()
    finally:
        tracer.uninstall()
    for level in ("outer", "inner"):
        assert tracer.counts[f"numerics.quadrature.{level}.calls"] > 0, level
    assert tracer.counts["numerics.quadrature.rate_t.calls"] == 0
    for name in ("build_nodes", "lookups"):
        assert tracer.counts[f"numerics.quadrature.tail.{name}"] > 0, name
    assert traced == plain


def test_traced_names_looked_up_at_call_time(table3):
    # the engine's laws and kernels look the traced names up at call time:
    # report() on an engine built before the tracer is installed counts as
    # much work in each of these layers as on one built after it, beyond
    # that one's construction
    tracing = _tracing()
    names = ("geometry.distance_pdf.calls", "geometry.distance_pdf.points",
             "propagation.kappa.calls", "propagation.kappa.points",
             "numerics.jets.affine_power.calls",
             "numerics.quadrature.inner.calls", "exclusion.calls",
             "exclusion.points")
    early = AnalyticEngine(table3, rel_tol=1e-4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        late = AnalyticEngine(table3, rel_tol=1e-4)
        built = dict(tracer.counts)
        tracer.bind_engine(late)
        late.report()
        after_late = dict(tracer.counts)
        tracer.bind_engine(early)
        early.report()
    finally:
        tracer.uninstall()
    for name in names:
        late_n = after_late.get(name, 0) - built.get(name, 0)
        early_n = tracer.counts[name] - after_late.get(name, 0)
        assert early_n > 0 and early_n == late_n, (name, early_n, late_n)


def test_import_loads_no_process_pool():
    # the process pool is imported where one is made: importing the package
    # or its CLI loads neither multiprocessing nor concurrent.futures
    code = ("import sys, hexnet; a = set(sys.modules); import hexnet.cli; "
            "b = set(sys.modules); "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "for s in (a, b) if m in s])")
    src = Path(hexnet.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
