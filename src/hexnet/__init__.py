"""Coverage and rate analysis for coexisting RF/THz finite indoor networks.

Two independent engines evaluate the same scenario: an analytical pipeline
(``hexnet.analytic``) built on nested adaptive quadrature and jet-based
Laplace-transform derivatives, and a Monte-Carlo simulator
(``hexnet.montecarlo``).  Their agreement is the package's acceptance gate.
"""

from importlib import resources

from .analytic import AnalyticEngine, CoverageReport
from .montecarlo import McEstimate, SimulationSummary, estimate
from .propagation import TierMetrics
from .params import (
    NetworkConfig,
    load_config,
    serialize_config,
    with_updates,
)

__version__ = "0.1.0"


def default_config_text() -> str:
    """The shipped baseline scenario document."""
    return resources.files("hexnet").joinpath("configs/table3.ini").read_text()


def default_config() -> NetworkConfig:
    return load_config(default_config_text())


__all__ = [
    "AnalyticEngine",
    "CoverageReport",
    "McEstimate",
    "NetworkConfig",
    "SimulationSummary",
    "TierMetrics",
    "default_config",
    "default_config_text",
    "estimate",
    "load_config",
    "serialize_config",
    "with_updates",
]
