"""Monte-Carlo simulation engine: the system model implemented literally.

Each trial redraws the whole network (AP positions, the THz subset, LOS/NLOS
marks, antenna gains, fading), associates by maximum average biased received
power, and evaluates the instantaneous SINR of the serving link.

Every AP carries a class code, the association event it would serve: 0 THz
LOS, 1 THz NLOS, 2 RF.  The scenario's ``propagation.link_table``, indexed
by that code, gives every AP's average received power from one expression,
its association bias, and the serving link's noise and bandwidth; each AP
draws fading only from its own class and an antenna gain only if it is THz.
Trials are partitioned into ``SUBSTREAMS`` independent sub-streams so
results are reproducible and independent of the degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import TierMetrics
from .antenna import desired_gain_pmf, interferer_gain_pmf, sample_gain
from .geometry import sample_deployment_arrays
from .params import NetworkConfig
from .propagation import LINKS, link_table, sample_fading

MIN_TRIALS = 1000

#: sub-streams every estimate's trials are split across
SUBSTREAMS = 16


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
    """Vectorized trials; returns (event codes 0/1/2, sinr, rate).

    Each AP's class code (0 THz LOS, 1 THz NLOS, 2 RF) indexes the link
    table, so ``amp e^{-k_a d} d^-alpha`` is written once for all APs.  The
    winner maximises that power times its class bias, and its code is the
    trial's event.  Interference sums power x gain x fading over the serving
    tier's other APs; the desired power is the winner's, times the desired
    gain and its fading.  After the deployment the draws come in a fixed
    order: desired gains for THz-served trials, interferer gains for THz
    APs, then one fading call per class sized by that class's AP count.
    """
    t = link_table(cfg)
    pmf_des = desired_gain_pmf(cfg.antenna)
    dist, is_thz, is_los = sample_deployment_arrays(cfg, rng, n)
    cls = np.where(is_thz, np.where(is_los, 0, 1), 2)
    power = t.amp[cls] * np.exp(-t.k_a[cls] * dist) * dist ** -t.alpha[cls]
    rows = np.arange(n)
    winner = np.argmax(power * t.bias[cls], axis=1)
    event = cls[rows, winner]
    serv_thz = event < 2

    gain_des = np.ones(n)
    gain_des[serv_thz] = sample_gain(pmf_des, rng, int(serv_thz.sum()))
    gain = np.ones_like(dist)
    gain[is_thz] = sample_gain(interferer_gain_pmf(cfg.antenna), rng,
                               int(is_thz.sum()))
    fad = np.empty_like(dist)
    for code, link in enumerate(LINKS):
        sel = cls == code
        fad[sel] = sample_fading(link, rng, cfg.radio, int(sel.sum()))

    term = power * gain * fad
    term[rows, winner] = 0.0
    interference = np.where(is_thz == serv_thz[:, None], term, 0.0).sum(axis=1)
    desired = power[rows, winner] * gain_des * fad[rows, winner]
    sinr = desired / (interference + t.noise[event])
    rate = t.bw[event] * np.log2(1.0 + sinr)
    return event, sinr, rate


def _stream_sums(cfg: NetworkConfig, seed_seq, n: int) -> np.ndarray:
    """Sufficient statistics of one sub-stream, a (5, 3) array.

    Rows: trial count, coverage, coverage^2, rate, rate^2, each summed per
    event (columns L, N, R).
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    event, sinr, rate = _simulate_batch(cfg, rng, n)
    cov = (sinr >= cfg.radio.theta).astype(float)
    return np.array([np.bincount(event, w, minlength=3)
                     for w in (None, cov, cov**2, rate, rate**2)])


def _mc_estimate(count: int, s1: float, s2: float) -> McEstimate:
    if count == 0:
        return McEstimate(math.nan, math.nan, 0)
    mean = s1 / count
    if count < 2:
        return McEstimate(mean, math.nan, count)
    var = max(s2 - s1 * s1 / count, 0.0) / (count - 1)
    return McEstimate(mean, 1.96 * math.sqrt(var / count), count)


def estimate(cfg: NetworkConfig, n_trials: int, seed,
             workers: int = 1) -> SimulationSummary:
    """Monte-Carlo estimates with 95% confidence half-widths.

    Trials are split across ``SUBSTREAMS`` deterministic sub-streams derived
    from the seed; the aggregate depends only on (cfg, n_trials, seed),
    not on ``workers``.
    """
    if n_trials < MIN_TRIALS:
        raise ValueError(f"n_trials must be >= {MIN_TRIALS}, got {n_trials}")

    children = np.random.SeedSequence(seed).spawn(SUBSTREAMS)
    base, extra = divmod(n_trials, SUBSTREAMS)
    jobs = [(cfg, children[i], base + (1 if i < extra else 0))
            for i in range(SUBSTREAMS)]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stream_sums_star, jobs))
    else:
        results = [_stream_sums(*job) for job in jobs]

    # merge in sub-stream order; float sums are reproducible because each
    # stream contributes one fixed partial per statistic
    sums = sum(results)
    count, cov1, cov2, rate1, rate2 = sums
    total = sums.sum(axis=1)
    counts = tuple(int(c) for c in count)
    per_event = [_mc_estimate(counts[c], cov1[c], cov2[c]) for c in range(3)]
    per_event_rate = [_mc_estimate(counts[c], rate1[c], rate2[c])
                      for c in range(3)]

    f_l = counts[0] / n_trials
    f_n = counts[1] / n_trials
    f_r = 1.0 - f_l - f_n  # float sum of the three is exactly 1
    return SimulationSummary(
        assoc=TierMetrics(f_l, f_n, f_r),
        coverage=_mc_estimate(n_trials, total[1], total[2]),
        rate=_mc_estimate(n_trials, total[3], total[4]),
        cond_coverage=TierMetrics(*per_event),
        cond_rate=TierMetrics(*per_event_rate),
        counts=counts,
        n_trials=n_trials,
    )


def _stream_sums_star(job):
    return _stream_sums(*job)
