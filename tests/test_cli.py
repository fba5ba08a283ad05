import csv
import json

import pytest
from click.testing import CliRunner

from hexnet import serialize_config, with_updates
from hexnet.cli import BASE_COLUMNS, EXIT_CONFIG, main


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
    rows = list(csv.reader(out.open()))
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


def test_unknown_sweep_parameter_is_a_config_error(small_config, tmp_path):
    res = CliRunner().invoke(main, ["analytic", "--config", small_config,
                                    "--sweep", "nope=1,2",
                                    "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == EXIT_CONFIG == 2
    assert "unknown sweep parameter" in res.output


def test_simulate_below_min_trials_is_a_config_error(small_config, tmp_path):
    res = CliRunner().invoke(main, ["simulate", "--config", small_config,
                                    "--trials", "999",
                                    "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == EXIT_CONFIG == 2
    assert "below minimum" in res.output
