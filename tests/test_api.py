"""Guards on the names other code binds: the package's public names, and every
name the benchmark's tracer (hexbench/tracing.py) replaces during a traced
run, which must stay bound on its owner and be looked up at call time."""

import importlib.util
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
        "default_config_text", "derived_constants", "estimate", "load_config",
        "serialize_config", "with_updates",
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
        estimate(cfg, 1000, seed=1)
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
    # the sampler saw every trial once, and every AP of every trial drew
    # one fading value
    assert tracer.counts["geometry.sample.trials"] == 1000
    assert tracer.counts["propagation.fading.draws"] == 1000 * cfg.geometry.N_A
