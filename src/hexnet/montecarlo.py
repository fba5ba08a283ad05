"""Monte-Carlo simulation engine: the system model implemented literally.

Each trial redraws the whole network (AP positions, the THz subset, LOS/NLOS
marks, antenna gains, fading), associates by maximum average biased received
power, and evaluates the instantaneous SINR of the serving link.  Trials are
partitioned into independent sub-streams so results are reproducible and
independent of the degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import TierMetrics
from .antenna import (
    desired_gain_pmf,
    interferer_gain_pmf,
    mean_desired_gain,
    sample_gain,
)
from .geometry import sample_deployment_arrays
from .params import NetworkConfig, derived_constants
from .propagation import LinkClass, sample_fading

MIN_TRIALS = 1000
DEFAULT_SUBSTREAMS = 16

@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width_95: float
    n_trials: int


@dataclass(frozen=True)
class SimulationSummary:
    assoc: TierMetrics                # association frequencies
    coverage: McEstimate
    rate: McEstimate
    cond_coverage: TierMetrics        # of McEstimate
    cond_rate: TierMetrics            # of McEstimate
    counts: tuple[int, int, int]      # trials per event (L, N, R)
    n_trials: int


def _simulate_batch(cfg: NetworkConfig, rng: np.random.Generator, n: int):
    """Vectorized trials; returns (event codes 0/1/2, sinr, rate, x_serv)."""
    g, r = cfg.geometry, cfg.radio
    der = derived_constants(cfg)
    mean_gain = mean_desired_gain(cfg.antenna)
    pmf0 = desired_gain_pmf(cfg.antenna)
    pmf_i = interferer_gain_pmf(cfg.antenna)

    x, y, dist, is_thz, is_los = sample_deployment_arrays(cfg, rng, n)
    alpha_thz = np.where(is_los, r.alpha_L, r.alpha_N)

    # average biased received powers drive the association
    thz_avg = (r.B_T * r.P_T * r.gamma_T * mean_gain
               * np.exp(-r.k_a * dist) * dist**-alpha_thz)
    rf_avg = r.P_R * r.gamma_R * dist**-r.alpha_R
    biased = np.where(is_thz, thz_avg, rf_avg)
    winner = np.argmax(biased, axis=1)
    rows = np.arange(n)
    win_thz = is_thz[rows, winner]
    win_los = is_los[rows, winner]
    event = np.where(win_thz & win_los, 0, np.where(win_thz, 1, 2)).astype(np.int8)

    # fixed draw order and count, independent of trial outcomes
    gain_des = sample_gain(pmf0, rng, n)
    gain_int = sample_gain(pmf_i, rng, (n, g.N_A))
    fad_rf = sample_fading(LinkClass.RF, rng, r, (n, g.N_A))
    fad_los = sample_fading(LinkClass.THZ_LOS, rng, r, (n, g.N_A))
    fad_nlos = sample_fading(LinkClass.THZ_NLOS, rng, r, (n, g.N_A))
    fad_thz = np.where(is_los, fad_los, fad_nlos)

    # per-AP interference terms; the serving AP's own term is subtracted
    thz_term = (r.P_T * r.gamma_T * gain_int
                * np.exp(-r.k_a * dist) * dist**-alpha_thz * fad_thz)
    rf_term = r.P_R * r.gamma_R * dist**-r.alpha_R * fad_rf
    i_thz = np.where(is_thz, thz_term, 0.0).sum(axis=1)
    i_rf = np.where(is_thz, 0.0, rf_term).sum(axis=1)
    interference = np.where(
        event < 2,
        i_thz - thz_term[rows, winner],
        i_rf - rf_term[rows, winner],
    )

    x_serv = dist[rows, winner]
    serv_fad = np.where(event == 2, fad_rf[rows, winner], fad_thz[rows, winner])
    alpha_serv = np.where(event == 0, r.alpha_L,
                          np.where(event == 1, r.alpha_N, r.alpha_R))
    desired_thz = (r.P_T * r.gamma_T * gain_des
                   * np.exp(-r.k_a * x_serv) * x_serv**-alpha_serv)
    desired_rf = r.P_R * r.gamma_R * x_serv**-r.alpha_R
    desired = np.where(event == 2, desired_rf, desired_thz) * serv_fad

    noise = np.where(event == 2, r.sigma2_R, r.sigma2_T)
    sinr = desired / (interference + noise)
    bw = np.where(event == 2, r.W_R, r.W_T)
    rate = bw * np.log2(1.0 + sinr)
    return event, sinr, rate, x_serv


def _stream_sums(cfg: NetworkConfig, seed_seq, n: int):
    """Sufficient statistics of one sub-stream (order-insensitive to merge)."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    event, sinr, rate, _ = _simulate_batch(cfg, rng, n)
    cov = (sinr >= cfg.radio.theta).astype(float)
    out = {}
    for code in range(3):
        sel = event == code
        out[code] = (
            int(sel.sum()),
            float(cov[sel].sum()), float((cov[sel] ** 2).sum()),
            float(rate[sel].sum()), float((rate[sel] ** 2).sum()),
        )
    return out


def _mc_estimate(count: int, s1: float, s2: float) -> McEstimate:
    if count == 0:
        return McEstimate(math.nan, math.nan, 0)
    mean = s1 / count
    if count < 2:
        return McEstimate(mean, math.nan, count)
    var = max(s2 - s1 * s1 / count, 0.0) / (count - 1)
    return McEstimate(mean, 1.96 * math.sqrt(var / count), count)


def estimate(cfg: NetworkConfig, n_trials: int, seed,
             n_streams: int = DEFAULT_SUBSTREAMS,
             workers: int = 1) -> SimulationSummary:
    """Monte-Carlo estimates with 95% confidence half-widths.

    Trials are split across ``n_streams`` deterministic sub-streams derived
    from the seed; the aggregate depends only on (cfg, n_trials, seed),
    not on ``workers``.
    """
    if n_trials < MIN_TRIALS:
        raise ValueError(f"n_trials must be >= {MIN_TRIALS}, got {n_trials}")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")

    children = np.random.SeedSequence(seed).spawn(n_streams)
    base, extra = divmod(n_trials, n_streams)
    sizes = [base + (1 if i < extra else 0) for i in range(n_streams)]
    jobs = [(cfg, children[i], sizes[i]) for i in range(n_streams) if sizes[i] > 0]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stream_sums_star, jobs))
    else:
        results = [_stream_sums(*job) for job in jobs]

    # merge in sub-stream order; float sums are reproducible because each
    # stream contributes one fixed partial per statistic
    agg = {code: np.zeros(5) for code in range(3)}
    for res in results:
        for code in range(3):
            cnt, c1, c2, r1, r2 = res[code]
            agg[code] += np.array([cnt, c1, c2, r1, r2])

    counts = tuple(int(agg[c][0]) for c in range(3))
    per_event = {c: _mc_estimate(int(agg[c][0]), agg[c][1], agg[c][2])
                 for c in range(3)}
    per_event_rate = {c: _mc_estimate(int(agg[c][0]), agg[c][3], agg[c][4])
                      for c in range(3)}
    tot_c1 = sum(agg[c][1] for c in range(3))
    tot_c2 = sum(agg[c][2] for c in range(3))
    tot_r1 = sum(agg[c][3] for c in range(3))
    tot_r2 = sum(agg[c][4] for c in range(3))

    f_l = counts[0] / n_trials
    f_n = counts[1] / n_trials
    f_r = 1.0 - f_l - f_n  # float sum of the three is exactly 1
    return SimulationSummary(
        assoc=TierMetrics(f_l, f_n, f_r),
        coverage=_mc_estimate(n_trials, tot_c1, tot_c2),
        rate=_mc_estimate(n_trials, tot_r1, tot_r2),
        cond_coverage=TierMetrics(per_event[0], per_event[1], per_event[2]),
        cond_rate=TierMetrics(per_event_rate[0], per_event_rate[1],
                              per_event_rate[2]),
        counts=counts,
        n_trials=n_trials,
    )


def _stream_sums_star(job):
    return _stream_sums(*job)
