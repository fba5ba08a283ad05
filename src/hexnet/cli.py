"""Command-line front end: analytic runs, Monte-Carlo runs, cross-validation.

Sweeps reproduce the reference scenario's figure axes; results are emitted as
CSV (or JSON records with ``--json``) with a fixed column schema so one output
format serves every figure.  Exit codes: 0 success / all points pass,
1 validation failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import click
import numpy as np

from . import montecarlo
from .analytic import AnalyticEngine
from .errors import ConfigError, HexnetError
from .params import NetworkConfig, load_config, with_updates

EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_PARAMETERS = ("B_T", "delta_T", "N_A", "v_0", "sigma_eps", "theta")

#: accepted aliases: alias -> (canonical, converter)
_SWEEP_ALIASES = {
    "B_T_db": ("B_T", lambda v: 10.0 ** (v / 10.0)),
    "theta_db": ("theta", lambda v: 10.0 ** (v / 10.0)),
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


class EmptySweep(ConfigError):
    pass


class BelowMinTrials(ConfigError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter with its value grid."""

    parameter: str
    values: tuple[float, ...]

    def points(self, base: NetworkConfig):
        """(parameter, value, config) per grid point; validates every config."""
        out = []
        for v in self.values:
            out.append((self.parameter, v,
                        apply_sweep_value(base, self.parameter, v)))
        return out


def apply_sweep_value(cfg: NetworkConfig, parameter: str, value: float) -> NetworkConfig:
    if parameter == "sigma_eps":
        return with_updates(cfg, sigma_eps_T=value, sigma_eps_U=value)
    if parameter == "N_A":
        if value != int(value):
            raise ConfigError(f"N_A sweep value {value!r} is not an integer")
        return with_updates(cfg, N_A=int(value))
    if parameter in SWEEP_PARAMETERS:
        return with_updates(cfg, **{parameter: value})
    raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                      f"choose from {SWEEP_PARAMETERS}")


def parse_sweep(text: str) -> SweepSpec:
    """Parse ``param=v1,v2,...`` or ``param=linspace:a,b,n`` / ``logspace:a,b,n``.

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
            raise EmptySweep(f"{kind} with {n} points")
        if kind == "linspace":
            values = np.linspace(a, b, n)
        else:
            if a <= 0 or b <= 0:
                raise ConfigError("logspace endpoints must be positive")
            values = np.geomspace(a, b, n)
    else:
        items = [s for s in (p.strip() for p in spec.split(",")) if s]
        if not items:
            raise EmptySweep(f"sweep {text!r} lists no values")
        try:
            values = [float(s) for s in items]
        except ValueError as exc:
            raise ConfigError(f"non-numeric sweep value in {text!r}") from exc
    values = [conv(v) if conv else float(v) for v in values]
    return SweepSpec(name, tuple(values))


# -- presets reproducing the reference figure axes -----------------------------

def _curve(label, overrides, parameter, values):
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
    "fig7": [_curve(f"N_A={n}", {"N_A": n}, "delta_T", _DELTA_GRID)
             for n in (10, 20, 30)],
    # coverage (fig8) / rate (fig9) vs UE offset, one curve per THz fraction
    "fig8": [_curve(f"delta_T={dt}", {"delta_T": dt}, "v_0", _V0_GRID)
             for dt in (0.2, 0.5, 0.8)],
    "fig9": [_curve(f"delta_T={dt}", {"delta_T": dt}, "v_0", _V0_GRID)
             for dt in (0.2, 0.5, 0.8)],
}


def _preset_points(name: str, base: NetworkConfig):
    try:
        curves = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose fig4..fig9") from None
    points = []
    for curve in curves:
        cfg = with_updates(base, **curve["overrides"]) if curve["overrides"] else base
        label = f"{curve['parameter']}[{curve['label']}]"
        for v in curve["values"]:
            points.append((label, float(v),
                           apply_sweep_value(cfg, curve["parameter"], v)))
    return points


# -- row computation ------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.9g}"


def _analytic_cells(cfg: NetworkConfig) -> dict:
    rep = AnalyticEngine(cfg).report()
    return {
        "A_L": rep.assoc.los, "A_N": rep.assoc.nlos, "A_R": rep.assoc.rf,
        "Pcov_L": rep.cond_coverage.los, "Pcov_N": rep.cond_coverage.nlos,
        "Pcov_R": rep.cond_coverage.rf, "Pcov": rep.total_coverage,
        "tau_L": rep.cond_rate.los, "tau_N": rep.cond_rate.nlos,
        "tau_R": rep.cond_rate.rf, "tau": rep.total_rate,
    }


def _binomial_ci(freq: float, n: int) -> float:
    return 1.96 * math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _mc_cells(cfg: NetworkConfig, trials: int, seed) -> dict:
    sim = montecarlo.estimate(cfg, trials, seed)
    n = sim.n_trials
    cells = {
        "mc_A_L": sim.assoc.los, "mc_A_L_ci": _binomial_ci(sim.assoc.los, n),
        "mc_A_N": sim.assoc.nlos, "mc_A_N_ci": _binomial_ci(sim.assoc.nlos, n),
        "mc_A_R": sim.assoc.rf, "mc_A_R_ci": _binomial_ci(sim.assoc.rf, n),
        "mc_Pcov": sim.coverage.mean, "mc_Pcov_ci": sim.coverage.half_width_95,
        "mc_tau": sim.rate.mean, "mc_tau_ci": sim.rate.half_width_95,
    }
    for key, est in (("mc_Pcov_L", sim.cond_coverage.los),
                     ("mc_Pcov_N", sim.cond_coverage.nlos),
                     ("mc_Pcov_R", sim.cond_coverage.rf),
                     ("mc_tau_L", sim.cond_rate.los),
                     ("mc_tau_N", sim.cond_rate.nlos),
                     ("mc_tau_R", sim.cond_rate.rf)):
        cells[key] = est.mean
        cells[key + "_ci"] = est.half_width_95
    return cells


def _compute_point(args):
    label, value, cfg, with_analytic, with_mc, trials, seed_parts = args
    row = {"sweep_param": label, "sweep_value": value}
    if with_analytic:
        row.update(_analytic_cells(cfg))
    if with_mc:
        row.update(_mc_cells(cfg, trials, list(seed_parts)))
    return row


def _run_points(points, with_analytic, with_mc, trials, seed, workers):
    jobs = [
        (label, value, cfg, with_analytic, with_mc, trials, (seed, idx))
        for idx, (label, value, cfg) in enumerate(points)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_compute_point, jobs))
    return [_compute_point(job) for job in jobs]


def _write_rows(rows, columns, out_path, as_json):
    if as_json:
        records = [{c: row.get(c, math.nan) for c in columns} for row in rows]
        payload = json.dumps(records, indent=2, allow_nan=True) + "\n"
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                row["sweep_param"],
                *(_fmt(row.get(c, math.nan)) for c in columns[1:]),
            ])


def _load_cfg(path) -> NetworkConfig:
    if path is None:
        from . import default_config
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def _gather_points(cfg, sweep, preset):
    if preset is not None:
        return _preset_points(preset, cfg)
    if sweep is not None:
        return parse_sweep(sweep).points(cfg)
    return [("none", 0.0, cfg)]


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        fn()
    except (ConfigError, FileNotFoundError, OSError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except HexnetError as exc:
        _fail(EXIT_NUMERICAL, str(exc))


@click.group()
def main():
    """Coverage and rate of a finite indoor network of RF and THz APs."""


_config_opt = click.option("--config", "config_path", type=click.Path(), default=None,
                           help="Scenario config; defaults to the shipped baseline.")
_sweep_opt = click.option("--sweep", default=None,
                          help="param=v1,v2,... or param=linspace:a,b,n / logspace:a,b,n")
_preset_opt = click.option("--preset", default=None,
                           help="Figure preset fig4..fig9 (overrides --sweep).")
_json_opt = click.option("--json", "as_json", is_flag=True,
                         help="Emit JSON records instead of CSV.")
_workers_opt = click.option("--workers", type=int, default=1, show_default=True,
                            help="Process pool size for sweep points.")


@main.command(name="analytic")
@_config_opt
@_sweep_opt
@_preset_opt
@click.option("--out", "out_path", required=True, type=click.Path())
@_json_opt
@_workers_opt
def analytic_cmd(config_path, sweep, preset, out_path, as_json, workers):
    """Run the analytical pipeline over a sweep."""

    def run():
        cfg = _load_cfg(config_path)
        points = _gather_points(cfg, sweep, preset)
        rows = _run_points(points, True, False, 0, 0, workers)
        _write_rows(rows, BASE_COLUMNS, out_path, as_json)
        click.echo(f"wrote {len(rows)} rows to {out_path}")

    _guarded(run)


@main.command()
@_config_opt
@_sweep_opt
@_preset_opt
@click.option("--trials", type=int, default=200_000, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_json_opt
@_workers_opt
def simulate(config_path, sweep, preset, trials, seed, out_path, as_json, workers):
    """Run both engines over a sweep; adds mc_* columns with 95% CIs."""

    def run():
        if trials < montecarlo.MIN_TRIALS:
            raise BelowMinTrials(
                f"--trials {trials} below minimum {montecarlo.MIN_TRIALS}")
        cfg = _load_cfg(config_path)
        points = _gather_points(cfg, sweep, preset)
        rows = _run_points(points, True, True, trials, seed, workers)
        _write_rows(rows, BASE_COLUMNS + MC_COLUMNS, out_path, as_json)
        click.echo(f"wrote {len(rows)} rows to {out_path}")

    _guarded(run)


@main.command()
@_config_opt
@_sweep_opt
@_preset_opt
@click.option("--trials", type=int, default=200_000, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@_workers_opt
def validate(config_path, sweep, preset, trials, seed, workers):
    """Compare the engines pointwise; exit 0 only if every point passes."""

    def run():
        if trials < montecarlo.MIN_TRIALS:
            raise BelowMinTrials(
                f"--trials {trials} below minimum {montecarlo.MIN_TRIALS}")
        cfg = _load_cfg(config_path)
        points = _gather_points(cfg, sweep, preset)
        rows = _run_points(points, True, True, trials, seed, workers)
        failures = []
        for row in rows:
            checks = [
                ("A_T", row["A_L"] + row["A_N"],
                 row["mc_A_L"] + row["mc_A_N"],
                 row["mc_A_L_ci"] + row["mc_A_N_ci"] + VALIDATE_SLACK_PROB),
                ("Pcov", row["Pcov"], row["mc_Pcov"],
                 row["mc_Pcov_ci"] + VALIDATE_SLACK_PROB),
                ("tau", row["tau"], row["mc_tau"],
                 row["mc_tau_ci"] + VALIDATE_SLACK_RATE * abs(row["mc_tau"])),
            ]
            point_fail = []
            for name, an, mc, tol in checks:
                ok = abs(an - mc) <= tol
                if not ok:
                    point_fail.append((name, an, mc, tol))
            verdict = "PASS" if not point_fail else "FAIL"
            click.echo(
                f"{verdict} {row['sweep_param']}={_fmt(row['sweep_value'])} "
                + " ".join(
                    f"{name}: analytic={_fmt(an)} mc={_fmt(mc)} tol={_fmt(tol)}"
                    for name, an, mc, tol in checks
                )
            )
            if point_fail:
                failures.append((row, point_fail))
        if failures:
            row, details = failures[0]
            click.echo(
                f"FAILED at {row['sweep_param']}={_fmt(row['sweep_value'])}: "
                + "; ".join(
                    f"{name} |{_fmt(an)} - {_fmt(mc)}| > {_fmt(tol)}"
                    for name, an, mc, tol in details
                ),
                err=True,
            )
            sys.exit(EXIT_VALIDATION)
        click.echo(f"all {len(rows)} points pass")

    _guarded(run)


if __name__ == "__main__":
    main()
