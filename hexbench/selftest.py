"""Self-tests of the benchmark itself (not of hexnet).

    python3 -m pytest -q hexbench/selftest.py

The file name keeps them out of the package's own test run; each test uses
cheap sweep points.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (fixes the BLAS thread count before numpy work)
import tracing  # noqa: E402
import workloads  # noqa: E402
from hexnet import analytic, default_config  # noqa: E402
from hexnet.numerics.quadrature import NODES, Quadrature  # noqa: E402

#: every name a tracer replaces, as bound before any tracing
ORIGINALS = {(owner, attr): owner.__dict__[attr]
             for owner, attr in tracing.patched_names()}

CHEAP = (
    ("coverage", workloads._pt(N_A=10, delta_T=0.2)),
    ("rate", workloads._pt(N_A=10, delta_T=0.1)),
    ("mc", workloads._pt(N_A=10, delta_T=0.5)),
)


def _evaluate(tracer, seed=7):
    base = default_config()
    out = []
    for idx, (kind, point) in enumerate(CHEAP):
        tracer.point = idx
        cfg = point.config(base)
        if kind == "mc":
            out.append(workloads.mc_point(cfg, [seed, idx, 0], tracer))
        else:
            out.append(workloads.analytic_point(kind, cfg, tracer))
    return out


def _traced(seed=7):
    tr = tracing.Tracer()
    with tr:
        outputs = _evaluate(tr, seed)
    return tr, outputs


@pytest.fixture(scope="module")
def two_traced_runs():
    return _traced(), _traced()


def test_traced_outputs_bit_identical(two_traced_runs):
    plain = _evaluate(tracing.NullTracer())
    (_, traced), _ = two_traced_runs
    assert run.same_outputs(plain, traced)


def test_every_wrapper_removed(two_traced_runs):
    for (owner, attr), original in ORIGINALS.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def test_counts_repeat_exactly(two_traced_runs):
    (a, _), (b, _) = two_traced_runs
    assert dict(a.counts) == dict(b.counts)
    for key in ("numerics.quadrature.inner.nodes", "numerics.quadrature.rate_t.calls",
                "numerics.jets.affine_power.elements", "geometry.sample.trials"):
        assert a.counts[key] > 0, key
    assert len(a.span_id) == len(b.span_id)


def test_spans_nest_and_self_time_is_bounded(two_traced_runs):
    (tr, _), _ = two_traced_runs
    dur = np.asarray(tr.stop) - np.asarray(tr.start)
    assert np.all(dur >= 0.0)
    for name, total in tr.total_s.items():
        assert -1e-9 <= tr.self_s[name] <= total + 1e-9, name


def test_kept_frac_matches_direct_panel_count():
    blocks = []

    def f(x):
        blocks.append(np.array(x).reshape(-1, 15))
        return np.sqrt(np.abs(x - 0.3)) + np.exp(-40.0 * (x - 0.8) ** 2)

    tr = tracing.Tracer()
    with tr:
        analytic.integrate(f, 0.0, 1.0, Quadrature(rel_tol=1e-10, abs_tol=1e-14))
    name = "numerics.quadrature.outer"
    kept_frac = tr.counts[name + ".kept_nodes"] / tr.counts[name + ".nodes"]

    panels = np.concatenate(blocks)
    mids = panels[:, 7]
    halves = (panels[:, 14] - mids) / NODES[14]
    assert tr.counts[name + ".sweeps"] == len(blocks) > 2
    final = 0
    for m, h in zip(mids, halves):
        inside = (np.abs(mids - m) < h * (1.0 - 1e-9)) & (halves < h * (1.0 - 1e-9))
        final += not inside.any()
    assert kept_frac == pytest.approx(final * 15 / panels.size, rel=0, abs=1e-15)
    assert 0.0 < kept_frac < 1.0


def test_mc_outputs_fixed_by_seed():
    cfg = workloads._pt(N_A=10, delta_T=0.5).config(default_config())
    null = tracing.NullTracer()
    a = workloads.mc_point(cfg, [3, 0, 0], null)
    b = workloads.mc_point(cfg, [3, 0, 0], null)
    c = workloads.mc_point(cfg, [4, 0, 0], null)
    assert run.same_outputs([a], [b])
    assert not run.same_outputs([a], [c])


def test_pooled_mc_estimate():
    one = {"n": 100.0, "mc_A_L": 0.3, "mc_A_N": 0.1, "mc_Pcov": 0.5,
           "mc_Pcov_ci": 0.02, "mc_tau": 2.0, "mc_tau_ci": 0.2}
    single = workloads.pool_mc([one])
    assert single["mc_A_T"] == pytest.approx(0.4)
    assert single["mc_A_T_ci"] == pytest.approx(
        1.96 * (math.sqrt(0.3 * 0.7 / 100) + math.sqrt(0.1 * 0.9 / 100)))
    four = workloads.pool_mc([one] * 4)
    assert four["mc_Pcov"] == single["mc_Pcov"]
    assert four["mc_Pcov_ci"] == pytest.approx(0.01)
    assert four["mc_tau_ci"] == pytest.approx(0.1)
    assert four["mc_A_T_ci"] == pytest.approx(single["mc_A_T_ci"] / 2)


def test_reference_check_flags_a_miss():
    rel_tol, abs_tol = workloads.engine_tolerances()
    want = workloads.load_reference()["points"]["coverage_sweep"]["N_A=10,delta_T=1"]
    cells = {k: (math.nan if v is None else v) for k, v in want.items()}
    assert workloads.check_analytic(cells, want, rel_tol, abs_tol) == []
    cells["Pcov"] *= 1.0 + 1e-3
    assert workloads.check_analytic(cells, want, rel_tol, abs_tol)
    cells["Pcov"] = math.nan
    assert workloads.check_analytic(cells, want, rel_tol, abs_tol)


def test_tail_percentile():
    assert run.tail(list(range(1, 46))) == (35, 100.0 * 35 / 45, 45)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_metric_names_and_units_match_benchmark_json():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    empty = run.Sweep(wall_s=1.0, rounds=1)
    emitted = run.per_layer(tracing.Tracer(), {"load_s": 0.0, "init_s": 0.0},
                            empty, empty)
    assert {k: run.unit_of(k) for k in emitted} == declared
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: run.unit_of(k) for k in run.END_TO_END_UNITS} == e2e
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_setup_probes_take_their_count():
    probes = run.SetupProbes(span_s=3600.0, count=2)
    assert probes.due() > 0.0  # the first probe is due at once
    assert probes.due() == 0.0  # the next one only after half an hour
    setup = probes.medians()  # takes the rest back to back
    assert len(probes.runs) == 2
    assert set(setup) == {"setup_s", "import_s", "load_s", "init_s"}
    assert 0.0 < setup["init_s"] < setup["setup_s"]
