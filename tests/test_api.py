"""Guards on the names other code binds: the package's public names, and every
name the benchmark's tracer (hexbench/tracing.py) replaces during a traced
run, which must stay bound on its owner and be looked up at call time."""

import importlib.util
from pathlib import Path

import hexnet
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
