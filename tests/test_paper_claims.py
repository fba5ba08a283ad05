"""The source paper's claims, as shapes of the analytic curves on the grids
of the CLI's figure presets (read from ``cli.PRESETS``, not copied)."""

from __future__ import annotations

from hexnet import with_updates
from hexnet.analytic import AnalyticEngine
from hexnet.cli import PRESETS, apply_sweep_value


def _curve(figure: str, label: str):
    (curve,) = [c for c in PRESETS[figure] if c["label"] == label]
    return curve


def test_rate_rises_with_thz_fraction(table3):
    # Fig. 7: a higher THz fraction raises the average rate
    curve = _curve("fig7", "N_A=20")
    base = with_updates(table3, **curve["overrides"])
    rates = [AnalyticEngine(apply_sweep_value(base, curve["parameter"], v),
                            rel_tol=1e-4).report().total_rate
             for v in curve["values"]]
    assert len(rates) == 11
    assert all(b > a for a, b in zip(rates, rates[1:])), rates
