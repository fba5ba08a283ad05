"""Command-line front end: analytic runs, Monte-Carlo runs, cross-validation.

Sweeps reproduce the reference scenario's figure axes; results are emitted as
CSV (or JSON records with ``--json``) with a fixed column schema so one output
format serves every figure.  A JSON record holds ``null`` where a cell is
undefined (NaN in the CSV).  A ``--sweep`` is ``param=v1,v2,...`` or
``param=linspace:a,b,n`` / ``logspace:a,b,n``; ``logspace`` takes the endpoint
values a and b, not their exponents.  The aliases ``B_T_db`` and ``theta_db``
take decibels and ``sigma_eps_deg`` degrees.  Every command runs its points
through ``_rows``.  Exit codes: 0 success / all points pass, 1 validation
failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys

import click
import numpy as np

from . import default_config, montecarlo
from .analytic import AnalyticEngine
from .errors import ConfigError, HexnetError
from .params import NetworkConfig, from_db, load_config, with_updates
from .propagation import EVENTS

EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_PARAMETERS = ("B_T", "delta_T", "N_A", "v_0", "sigma_eps", "theta")

#: accepted aliases: alias -> (canonical, converter)
_SWEEP_ALIASES = {
    "B_T_db": ("B_T", from_db),
    "theta_db": ("theta", from_db),
    "sigma_eps_deg": ("sigma_eps", math.radians),
}

BASE_COLUMNS = (
    "sweep_param", "sweep_value",
    "A_L", "A_N", "A_R",
    "Pcov_L", "Pcov_N", "Pcov_R", "Pcov",
    "tau_L", "tau_N", "tau_R", "tau",
)
_MC_METRICS = (
    "mc_A_L", "mc_A_N", "mc_A_R",
    "mc_Pcov_L", "mc_Pcov_N", "mc_Pcov_R", "mc_Pcov",
    "mc_tau_L", "mc_tau_N", "mc_tau_R", "mc_tau",
)
MC_COLUMNS = tuple(c for m in _MC_METRICS for c in (m, m + "_ci"))

#: probability slack and relative rate slack of the validation verdict
VALIDATE_SLACK_PROB = 0.005
VALIDATE_SLACK_RATE = 0.01


def apply_sweep_value(cfg: NetworkConfig, parameter: str, value: float) -> NetworkConfig:
    if parameter == "sigma_eps":
        return with_updates(cfg, sigma_eps_T=value, sigma_eps_U=value)
    if parameter == "N_A":
        if not float(value).is_integer():
            raise ConfigError(f"N_A sweep value {value!r} is not an integer")
        return with_updates(cfg, N_A=int(value))
    return with_updates(cfg, **{parameter: value})


def parse_sweep(text: str) -> dict:
    """Parse ``param=v1,v2,...`` or ``param=linspace:a,b,n`` / ``logspace:a,b,n``
    into one curve (see ``_curve``) on the base config, without a label.

    ``logspace`` takes actual endpoint values, not exponents.  Aliases
    ``B_T_db``, ``theta_db`` and ``sigma_eps_deg`` convert their values.
    """
    if "=" not in text:
        raise ConfigError(f"sweep spec {text!r} must look like param=values")
    name, _, spec = text.partition("=")
    name = name.strip()
    conv = None
    if name in _SWEEP_ALIASES:
        name, conv = _SWEEP_ALIASES[name]
    if name not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {name!r}; "
                          f"choose from {SWEEP_PARAMETERS}")
    spec = spec.strip()
    if spec.startswith(("linspace:", "logspace:")):
        kind, _, rest = spec.partition(":")
        try:
            a, b, n = [s.strip() for s in rest.split(",")]
            a, b, n = float(a), float(b), int(n)
        except ValueError as exc:
            raise ConfigError(f"malformed {kind} spec {spec!r}") from exc
        if n < 1:
            raise ConfigError(f"{kind} with {n} points")
        if kind == "linspace":
            values = np.linspace(a, b, n)
        else:
            if a <= 0 or b <= 0:
                raise ConfigError("logspace endpoints must be positive")
            values = np.geomspace(a, b, n)
    else:
        items = [s for s in (p.strip() for p in spec.split(",")) if s]
        if not items:
            raise ConfigError(f"sweep {text!r} lists no values")
        try:
            values = [float(s) for s in items]
        except ValueError as exc:
            raise ConfigError(f"non-numeric sweep value in {text!r}") from exc
    values = [conv(v) if conv else float(v) for v in values]
    return _curve(None, {}, name, values)


# -- presets reproducing the reference figure axes -----------------------------

def _curve(label, overrides, parameter, values):
    """One curve: ``parameter`` swept over ``values`` on the base config
    updated by ``overrides``.  Its rows are labelled ``parameter``, or
    ``parameter[label]`` when it has a label."""
    return {"label": label, "overrides": overrides,
            "parameter": parameter, "values": tuple(values)}


_BIAS_GRID = tuple(np.geomspace(1e-2, 1e2, 9))
_DELTA_GRID = tuple(round(x, 1) for x in np.linspace(0.0, 1.0, 11))
_V0_GRID = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 76.0, 79.0)

PRESETS = {
    # THz association probability vs bias, one curve per beam-steering error
    "fig4": [_curve(f"sigma_eps={d}deg",
                    {"sigma_eps_T": math.radians(d), "sigma_eps_U": math.radians(d)},
                    "B_T", _BIAS_GRID) for d in (0, 10, 30)],
    # coverage vs bias for misalignment / THz-fraction combinations
    "fig5": [_curve(f"sigma_eps={d}deg,delta_T={dt}",
                    {"sigma_eps_T": math.radians(d), "sigma_eps_U": math.radians(d),
                     "delta_T": dt},
                    "B_T", _BIAS_GRID)
             for d, dt in ((0, 0.8), (10, 0.8), (30, 0.8), (0, 0.5))],
    # coverage (fig6) / rate (fig7) vs THz fraction, one curve per AP count
    "fig6": [_curve(f"N_A={n}", {"N_A": n}, "delta_T", _DELTA_GRID)
             for n in (10, 20, 30)],
    # coverage (fig8) / rate (fig9) vs UE offset, one curve per THz fraction
    "fig8": [_curve(f"delta_T={dt}", {"delta_T": dt}, "v_0", _V0_GRID)
             for dt in (0.2, 0.5, 0.8)],
}
# every row carries both coverage and rate
PRESETS["fig7"] = PRESETS["fig6"]
PRESETS["fig9"] = PRESETS["fig8"]


def _points(curves, base: NetworkConfig):
    """(label, value, config) per point of every curve; validates every
    config."""
    points = []
    for curve in curves:
        cfg = with_updates(base, **curve["overrides"]) if curve["overrides"] else base
        label = curve["parameter"]
        if curve["label"] is not None:
            label += f"[{curve['label']}]"
        for v in curve["values"]:
            points.append((label, float(v),
                           apply_sweep_value(cfg, curve["parameter"], v)))
    return points


# -- row computation ------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.9g}"


def _analytic_cells(cfg: NetworkConfig) -> dict:
    rep = AnalyticEngine(cfg).report()
    cells = {"Pcov": rep.total_coverage, "tau": rep.total_rate}
    for e, *vals in zip(EVENTS, rep.assoc, rep.cond_coverage, rep.cond_rate):
        cells.update(zip((f"A_{e}", f"Pcov_{e}", f"tau_{e}"), vals))
    return cells


def _binomial_ci(freq: float, n: int) -> float:
    return 1.96 * math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _mc_cells(cfg: NetworkConfig, trials: int, seed) -> dict:
    sim = montecarlo.estimate(cfg, trials, seed)
    cells, ests = {}, {"mc_Pcov": sim.coverage, "mc_tau": sim.rate}
    for e, freq, cov, rate in zip(EVENTS, sim.assoc, sim.cond_coverage,
                                  sim.cond_rate):
        cells[f"mc_A_{e}"] = freq
        cells[f"mc_A_{e}_ci"] = _binomial_ci(freq, sim.n_trials)
        ests[f"mc_Pcov_{e}"], ests[f"mc_tau_{e}"] = cov, rate
    for key, est in ests.items():
        cells[key], cells[key + "_ci"] = est.mean, est.half_width_95
    return cells


def _compute_point(job):
    label, value, cfg, trials, seed = job
    row = {"sweep_param": label, "sweep_value": value, **_analytic_cells(cfg)}
    if trials is not None:
        row.update(_mc_cells(cfg, trials, seed))
    return row


def _rows(config_path, sweep, preset, workers, trials=None, seed=0):
    """One row per point of ``preset``, else ``sweep``, else the config
    alone, on the config at ``config_path`` (the shipped baseline if None):
    the analytic cells, plus the Monte-Carlo cells with ``trials`` trials
    when ``trials`` is not None.  Point ``i`` draws from seed ``[seed, i]``.
    """
    if trials is not None and trials < montecarlo.MIN_TRIALS:
        raise ConfigError(
            f"--trials {trials} below minimum {montecarlo.MIN_TRIALS}")
    if config_path is None:
        cfg = default_config()
    else:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = load_config(fh.read())
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose fig4..fig9")
        points = _points(PRESETS[preset], cfg)
    elif sweep is not None:
        points = _points([parse_sweep(sweep)], cfg)
    else:
        points = [("none", 0.0, cfg)]
    jobs = [(*point, trials, [seed, idx]) for idx, point in enumerate(points)]
    if workers > 1:
        # imported here: the pool's modules cost every run of the CLI
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_compute_point, jobs))
    return [_compute_point(job) for job in jobs]


def _json_cell(value):
    """A cell as strict JSON has it: NaN, which JSON lacks, as null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def _write_rows(rows, columns, out_path, as_json):
    if as_json:
        records = [{c: _json_cell(row.get(c, math.nan)) for c in columns}
                   for row in rows]
        payload = json.dumps(records, indent=2, allow_nan=False) + "\n"
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([
                    row["sweep_param"],
                    *(_fmt(row.get(c, math.nan)) for c in columns[1:]),
                ])
    click.echo(f"wrote {len(rows)} rows to {out_path}")


def _guarded(command):
    """Run ``command``, turning a configuration or I/O error into exit code
    2 and any other package error into exit code 3, each with its message
    on stderr."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (ConfigError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except HexnetError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return run


@click.group()
def main():
    """Coverage and rate of a finite indoor network of RF and THz APs."""


_config_opt = click.option("--config", "config_path", type=click.Path(), default=None,
                           help="Scenario config; defaults to the shipped baseline.")
_sweep_opt = click.option(
    "--sweep", default=None,
    help="param=v1,v2,... or param=linspace:a,b,n / logspace:a,b,n (logspace "
         "takes endpoint values, not exponents); the aliases B_T_db, theta_db "
         "and sigma_eps_deg take dB and degrees.")
_preset_opt = click.option("--preset", default=None,
                           help="Figure preset fig4..fig9 (overrides --sweep).")
_out_opt = click.option("--out", "out_path", required=True, type=click.Path())
_json_opt = click.option("--json", "as_json", is_flag=True,
                         help="Emit JSON records instead of CSV.")
_workers_opt = click.option("--workers", type=click.IntRange(min=1), default=1,
                            show_default=True,
                            help="Process pool size for sweep points.")


def _mc_opts(command):
    """The ``--trials``/``--seed`` pair of the Monte-Carlo commands."""
    trials = click.option("--trials", type=int, default=200_000,
                          show_default=True)
    seed = click.option("--seed", type=int, default=1, show_default=True)
    return trials(seed(command))


@main.command(name="analytic")
@_config_opt
@_sweep_opt
@_preset_opt
@_out_opt
@_json_opt
@_workers_opt
@_guarded
def analytic_cmd(config_path, sweep, preset, out_path, as_json, workers):
    """Run the analytical pipeline over a sweep."""
    rows = _rows(config_path, sweep, preset, workers)
    _write_rows(rows, BASE_COLUMNS, out_path, as_json)


@main.command()
@_config_opt
@_sweep_opt
@_preset_opt
@_mc_opts
@_out_opt
@_json_opt
@_workers_opt
@_guarded
def simulate(config_path, sweep, preset, trials, seed, out_path, as_json, workers):
    """Run both engines over a sweep; adds mc_* columns with 95% CIs."""
    rows = _rows(config_path, sweep, preset, workers, trials, seed)
    _write_rows(rows, BASE_COLUMNS + MC_COLUMNS, out_path, as_json)


@main.command()
@_config_opt
@_sweep_opt
@_preset_opt
@_mc_opts
@_workers_opt
@_guarded
def validate(config_path, sweep, preset, trials, seed, workers):
    """Compare the engines pointwise; exit 0 only if every point passes."""
    rows = _rows(config_path, sweep, preset, workers, trials, seed)
    first_failure = None
    for row in rows:
        point = f"{row['sweep_param']}={_fmt(row['sweep_value'])}"
        checks = [
            ("A_T", row["A_L"] + row["A_N"], row["mc_A_L"] + row["mc_A_N"],
             row["mc_A_L_ci"] + row["mc_A_N_ci"] + VALIDATE_SLACK_PROB),
            ("Pcov", row["Pcov"], row["mc_Pcov"],
             row["mc_Pcov_ci"] + VALIDATE_SLACK_PROB),
            ("tau", row["tau"], row["mc_tau"],
             row["mc_tau_ci"] + VALIDATE_SLACK_RATE * abs(row["mc_tau"])),
        ]
        failed = [(name, an, mc, tol) for name, an, mc, tol in checks
                  if not abs(an - mc) <= tol]
        click.echo(f"{'FAIL' if failed else 'PASS'} {point} " + " ".join(
            f"{name}: analytic={_fmt(an)} mc={_fmt(mc)} tol={_fmt(tol)}"
            for name, an, mc, tol in checks))
        if failed and first_failure is None:
            first_failure = f"FAILED at {point}: " + "; ".join(
                f"{name} |{_fmt(an)} - {_fmt(mc)}| > {_fmt(tol)}"
                for name, an, mc, tol in failed)
    if first_failure is not None:
        click.echo(first_failure, err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"all {len(rows)} points pass")


if __name__ == "__main__":
    main()
