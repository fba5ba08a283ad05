import csv
import json
import math

import pytest
from click.testing import CliRunner

from hexnet import serialize_config, with_updates
from hexnet.cli import (BASE_COLUMNS, EXIT_CONFIG, EXIT_NUMERICAL, MC_COLUMNS,
                        PRESETS, _rows, main)
from hexnet.errors import NotConverged


@pytest.fixture(scope="module")
def small_config(table3, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.cfg"
    path.write_text(serialize_config(with_updates(table3, N_A=2, delta_T=0.5)))
    return str(path)


def test_analytic_writes_csv_header_and_row(small_config, tmp_path):
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BASE_COLUMNS
    assert len(rows) == 2 and len(rows[1]) == len(BASE_COLUMNS)
    assert rows[1][0] == "none"


def test_analytic_json_writes_one_record(small_config, tmp_path):
    out = tmp_path / "out.json"
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    "--out", str(out), "--json"])
    assert res.exit_code == 0, res.output
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert tuple(records[0]) == BASE_COLUMNS


def _refuse_constant(name):
    raise ValueError(f"bare {name} token, which strict JSON refuses")


def test_undefined_cells_are_null_in_json_and_nan_in_csv(tmp_path):
    # an all-RF network has no THz event, so its LOS and NLOS cells are
    # undefined: --json writes them as null, which a strict parser reads,
    # and the CSV keeps writing nan
    undefined = {f"{pre}{metric}_{e}{post}"
                 for metric in ("Pcov", "tau") for e in "LN"
                 for pre, post in (("", ""), ("mc_", ""), ("mc_", "_ci"))}
    args = ["simulate", "--sweep", "delta_T=0", "--trials", "2000"]
    out = tmp_path / "out.json"
    res = CliRunner().invoke(main, [*args, "--out", str(out), "--json"])
    assert res.exit_code == 0, res.output
    (record,) = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert {c for c, v in record.items() if v is None} == undefined
    assert len(undefined) == 12
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    with out.open() as fh:
        header, row = csv.reader(fh)
    assert {c for c, v in zip(header, row) if v == "nan"} == undefined


def test_unknown_sweep_parameter_is_a_config_error(small_config, tmp_path):
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    "--sweep", "nope=1,2",
                                    "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == EXIT_CONFIG == 2
    assert "unknown sweep parameter" in res.output


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("trials", ["999", "0"])
def test_simulate_below_min_trials_is_a_config_error(small_config, tmp_path,
                                                     command, trials):
    args = [command, "--config", small_config, "--trials", trials]
    if command != "validate":
        args += ["--out", str(tmp_path / "out.csv")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == EXIT_CONFIG == 2
    assert f"error: --trials {trials} below minimum 1000" in res.output
    assert not (tmp_path / "out.csv").exists()


def test_analytic_zero_bias_is_a_config_error(table3, tmp_path):
    # B_T = 0 is a valid Monte-Carlo scenario, but the analytic engine
    # rejects it with a typed error: exit code 2 and its message, no
    # traceback
    path = tmp_path / "zero_bias.cfg"
    path.write_text(serialize_config(with_updates(table3, B_T=0.0)))
    res = CliRunner().invoke(main, ["analytic", "--config", str(path),
                                    "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == EXIT_CONFIG
    assert "needs B_T > 0" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_analytic_assoc_not_summing_to_one_exits_3(table3, tmp_path):
    # association probabilities that do not sum to 1 are a numerical
    # failure: exit code 3 and its message, no traceback, no file
    path = tmp_path / "huge_n_a.cfg"
    path.write_text(serialize_config(
        with_updates(table3, N_A=10**12, delta_T=0.8)))
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["analytic", "--config", str(path),
                                    "--out", str(out)])
    assert res.exit_code == EXIT_NUMERICAL
    assert res.stderr.startswith("error: association probabilities sum to")
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not out.exists()


def test_analytic_bias_past_the_float_range(table3, tmp_path):
    # a finite B_T the config accepts runs, however large
    path = tmp_path / "huge_bias.cfg"
    path.write_text(serialize_config(with_updates(table3, B_T=1e308)))
    res = CliRunner().invoke(main, ["analytic", "--config", str(path),
                                    "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("trials, columns", [
    (None, BASE_COLUMNS), (1000, BASE_COLUMNS + MC_COLUMNS),
], ids=["analytic", "simulate"])
def test_rows_hold_exactly_the_schema_columns(small_config, trials, columns):
    # the writer fills a missing cell with NaN, so a cell the row misses
    # would pass the header tests; every row carries each column itself
    rows = _rows(small_config, "delta_T=0.5,1", None, 1, trials)
    assert [sorted(row) for row in rows] == [sorted(columns)] * 2


@pytest.mark.parametrize("key, value, message", [
    ("N_A", "nan", "parameter 'N_A' = nan violates: integer expected"),
    ("r_d", "inf", "parameter 'r_d' = inf violates: finite value"),
    ("k_a", "inf", "parameter 'k_a' = inf violates: finite value"),
    ("W_T", "inf", "parameter 'W_T' = inf violates: finite value"),
], ids=["nan-N_A", "inf-r_d", "inf-k_a", "inf-W_T"])
def test_non_finite_config_value_is_a_config_error(table3, tmp_path, key,
                                                   value, message):
    # a NaN or infinite value in the config file is rejected when the
    # config is built: exit code 2 and its message, no traceback, no file
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in serialize_config(table3).splitlines()]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines))
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["analytic", "--config", str(path),
                                    "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG == 2
    assert res.stderr == f"error: {message}\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize("command", ["analytic", "simulate", "validate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(small_config, tmp_path,
                                            command, workers):
    # rejected while parsing the options, before any point runs or any
    # process starts
    args = [command, "--config", small_config, "--workers", workers]
    if command != "validate":
        args += ["--out", str(tmp_path / "out.csv")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert "--workers" in res.output
    assert not (tmp_path / "out.csv").exists()


#: one seeded ``validate`` point per figure family: (preset, curve, value)
VALIDATE_POINTS = (
    ("fig4", "sigma_eps=10deg", 10.0),
    ("fig5", "sigma_eps=0deg,delta_T=0.5", 0.1),
    ("fig6", "N_A=10", 0.6),
    ("fig8", "delta_T=0.2", 60.0),
)
VALIDATE_SEED = 7


@pytest.mark.parametrize("figure, label, value", VALIDATE_POINTS)
def test_validate_preset_point(table3, tmp_path, figure, label, value):
    # both engines agree under the validate rule at one point of each
    # figure family, on a config file the CLI reads back
    (curve,) = [c for c in PRESETS[figure] if c["label"] == label]
    assert any(math.isclose(v, value) for v in curve["values"])
    path = tmp_path / "point.cfg"
    path.write_text(serialize_config(with_updates(table3, **curve["overrides"])))
    res = CliRunner().invoke(main, [
        "validate", "--config", str(path),
        "--sweep", f"{curve['parameter']}={value!r}",
        "--seed", str(VALIDATE_SEED)])
    assert res.exit_code == 0, res.output
    assert "all 1 points pass" in res.output


def test_validate_passes_where_the_serving_power_vanishes(table3, tmp_path):
    # all-THz at k_a = 25 the mean SNR is below 1e-20 at every serving
    # distance: both engines give a rate of exactly 0, which the validate
    # rule's rate tolerance of 0 there requires
    path = tmp_path / "point.cfg"
    path.write_text(serialize_config(with_updates(table3, k_a=25.0,
                                                  delta_T=1.0)))
    res = CliRunner().invoke(main, ["validate", "--config", str(path),
                                    "--trials", "2000", "--seed", "7"])
    assert res.exit_code == 0, res.output
    assert "all 1 points pass" in res.output


def _sweep_records(config, tmp_path, sweep):
    out = tmp_path / "out.json"
    res = CliRunner().invoke(main, ["analytic", "--config", config,
                                    "--sweep", sweep, "--out", str(out),
                                    "--json"])
    assert res.exit_code == 0, res.output
    return json.loads(out.read_text())


@pytest.mark.parametrize("sweep, param, values", [
    ("B_T=linspace:1,3,3", "B_T", (1.0, 2.0, 3.0)),
    ("delta_T=linspace:0.5,0.5,1", "delta_T", (0.5,)),
    # logspace takes the endpoint values, not their exponents
    ("B_T=logspace:0.1,10,3", "B_T", (0.1, 1.0, 10.0)),
    # an integral AP count; 2 and 3 THz APs at the small config's delta_T
    ("N_A=4,6", "N_A", (4.0, 6.0)),
])
def test_sweep_ranges(small_config, tmp_path, sweep, param, values):
    records = _sweep_records(small_config, tmp_path, sweep)
    assert [r["sweep_param"] for r in records] == [param] * len(values)
    assert [r["sweep_value"] for r in records] == pytest.approx(values,
                                                                rel=1e-15)


@pytest.mark.parametrize("sweep, param, value", [
    ("B_T_db=10", "B_T", 10.0),
    ("theta_db=3", "theta", 10.0 ** 0.3),
    ("sigma_eps_deg=10", "sigma_eps", math.radians(10.0)),
])
def test_sweep_aliases_convert_their_values(small_config, tmp_path,
                                            sweep, param, value):
    (record,) = _sweep_records(small_config, tmp_path, sweep)
    assert record["sweep_param"] == param
    assert record["sweep_value"] == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("args, message", [
    (["--sweep", "B_T=logspace:0,10,3"], "logspace endpoints must be positive"),
    (["--sweep", "B_T=logspace:1,-10,3"], "logspace endpoints must be positive"),
    (["--sweep", "B_T=linspace:1,2,0"], "linspace with 0 points"),
    (["--sweep", "B_T=logspace:1,2,-1"], "logspace with -1 points"),
    (["--sweep", "B_T=linspace:1,2"], "malformed linspace spec 'linspace:1,2'"),
    (["--sweep", "B_T=logspace:1,2,x"], "malformed logspace spec 'logspace:1,2,x'"),
    (["--sweep", "B_T"], "sweep spec 'B_T' must look like param=values"),
    (["--sweep", "B_T=,"], "sweep 'B_T=,' lists no values"),
    (["--sweep", "B_T=1,x"], "non-numeric sweep value in 'B_T=1,x'"),
    (["--preset", "fig99"], "unknown preset 'fig99'; choose fig4..fig9"),
    (["--sweep", "N_A=10.5"], "N_A sweep value 10.5 is not an integer"),
    (["--sweep", "N_A=nan"], "N_A sweep value nan is not an integer"),
    (["--sweep", "N_A=inf"], "N_A sweep value inf is not an integer"),
], ids=["logspace-zero", "logspace-negative", "linspace-n0", "logspace-n-1",
        "linspace-two-fields", "logspace-non-integer-n", "no-equals",
        "no-values", "non-numeric", "unknown-preset", "non-integer-N_A",
        "nan-N_A", "infinite-N_A"])
def test_bad_sweep_or_preset_is_a_config_error(small_config, tmp_path,
                                               args, message):
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    *args, "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG == 2
    assert f"error: {message}" in res.output
    assert not out.exists()


def test_validate_failure_names_the_first_failing_point(small_config,
                                                        monkeypatch):
    # shifting every Monte-Carlo coverage by 0.5 fails the Pcov check at
    # each point: one FAIL line per point on stdout, the first failing
    # point on stderr, exit code 1
    from hexnet import cli
    mc_cells = cli._mc_cells

    def shifted(cfg, trials, seed):
        cells = mc_cells(cfg, trials, seed)
        cells["mc_Pcov"] += 0.5
        return cells

    monkeypatch.setattr(cli, "_mc_cells", shifted)
    res = CliRunner().invoke(main, ["validate", "--config", small_config,
                                    "--sweep", "B_T=0.1,10",
                                    "--trials", "2000", "--seed", "3"])
    assert res.exit_code == cli.EXIT_VALIDATION == 1
    lines = res.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["FAIL", "B_T=0.1"],
                                                    ["FAIL", "B_T=10"]]
    assert res.stderr.startswith("FAILED at B_T=0.1: Pcov |")
    assert res.stderr.count("\n") == 1
    assert "points pass" not in res.stdout


def _preset_csv(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    res = CliRunner().invoke(main, ["analytic", "--preset", preset,
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out.read_bytes()


@pytest.mark.parametrize("preset, n_lines, first_label", [
    ("fig6", 34, "delta_T[N_A=10]"),
    ("fig4", 28, "B_T[sigma_eps=0deg]"),
])
def test_preset_writes_one_labelled_row_per_point(tmp_path, preset, n_lines,
                                                  first_label):
    # a header and one row per point of every curve, each row labelled with
    # its curve
    lines = _preset_csv(tmp_path, preset).decode().splitlines()
    assert len(lines) == n_lines
    assert n_lines == 1 + sum(len(c["values"]) for c in PRESETS[preset])
    assert lines[1].split(",")[0] == first_label


def test_fig7_rows_equal_fig6_rows(tmp_path):
    # every row carries coverage and rate, so the rate figure's preset
    # writes what the coverage figure's does
    assert _preset_csv(tmp_path, "fig7") == _preset_csv(tmp_path, "fig6")


def test_worker_pool_writes_what_one_process_writes(small_config, tmp_path):
    # point i draws from seed [seed, i] wherever it runs
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        res = CliRunner().invoke(main, [
            "simulate", "--config", small_config, "--sweep", "B_T=0.1,1,10",
            "--trials", "2000", "--workers", workers, "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_numerical_failure_exits_3(small_config, tmp_path, monkeypatch):
    # a package error other than a config error: exit code 3, its message
    # on stderr, no traceback and no output file
    from hexnet import cli

    class Failing:
        def __init__(self, cfg):
            pass

        def report(self):
            raise NotConverged("balance residual 1e-3 above tolerance")

    monkeypatch.setattr(cli, "AnalyticEngine", Failing)
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    "--out", str(out)])
    assert res.exit_code == EXIT_NUMERICAL == 3
    assert res.stderr == "error: balance residual 1e-3 above tolerance\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not out.exists()
