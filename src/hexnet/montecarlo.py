"""Monte-Carlo simulation engine: the system model implemented literally.

Each trial redraws the whole network (AP positions, LOS/NLOS marks, antenna
gains, fading), associates by maximum average biased received power, and
evaluates the instantaneous SINR of the serving link.

The N_A AP positions are i.i.d. and independent of which APs are THz, so
taking the first ``n_thz`` columns of a trial as its THz APs has the law of
a uniformly random THz subset, and each tier is one contiguous block.  A
batch draws radii, angles (off centre only) and the THz block's LOS marks
(``geometry.sample_deployment_arrays``), then the desired gains of
THz-served trials, the THz block's interferer gains, the fading of its LOS
then its NLOS APs, and the RF block's fading.  A seed's stream differs from
that of versions that drew a random THz subset per trial.  Trials are split
into ``SUBSTREAMS`` independent sub-streams, so results are reproducible
and independent of the degree of parallelism.
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


def _at(block, col):
    """``block[i, col[i]]`` of every row i; zeros for a tier without APs,
    which serves no trial."""
    if block.shape[1] == 0:
        return np.zeros(len(block), block.dtype)
    return block[np.arange(len(block)), col]


def _others(term, col):
    """Row sums of ``term`` without column ``col[i]``, zeroed in place."""
    if term.shape[1]:
        term[np.arange(len(term)), col] = 0.0
    return term.sum(axis=1)


def _simulate_batch(cfg: NetworkConfig, rng: np.random.Generator, n: int):
    """Vectorized trials; returns (event codes 0/1/2, sinr, rate).

    Link-table codes 0 (THz LOS) and 1 (THz NLOS) differ only in the
    path-loss exponent and the fading shape, so the THz powers are one
    ``amp e^{-k_a d - alpha log d}``.  A tier's bias is one constant, so its
    winner is its strongest AP (for RF the nearest), and THz serves where
    its biased maximum is at least RF's.  Interference sums power x gain x
    fading over the serving tier's other APs; the desired power is the
    winner's times the desired gain and its fading.
    """
    t = link_table(cfg)
    n_thz = cfg.geometry.n_thz
    dist, is_los = sample_deployment_arrays(cfg, rng, n)
    d_thz, d_rf = dist[:, :n_thz], dist[:, n_thz:]
    nlos = ~is_los
    alpha = (-t.alpha).take(nlos.view(np.uint8))     # code 0 LOS, 1 NLOS
    p_thz = t.amp[0] * np.exp(alpha * np.log(d_thz) - t.k_a[0] * d_thz)
    p_rf = t.amp[2] * np.power(d_rf, -t.alpha[2])
    w_thz = p_thz.argmax(axis=1) if p_thz.size else 0
    w_rf = p_rf.argmax(axis=1) if p_rf.size else 0
    serv_thz = t.bias[0] * _at(p_thz, w_thz) >= _at(p_rf, w_rf)
    event = np.where(serv_thz, np.where(_at(is_los, w_thz), 0, 1), 2)

    gain_des = np.ones(n)
    gain_des[serv_thz] = sample_gain(desired_gain_pmf(cfg.antenna), rng,
                                     np.count_nonzero(serv_thz))
    gain = sample_gain(interferer_gain_pmf(cfg.antenna), rng, is_los.shape)
    sig_thz = np.empty_like(p_thz)
    for link, sel in zip(LINKS, (is_los, nlos)):
        sig_thz[sel] = sample_fading(link, rng, cfg.radio, np.count_nonzero(sel))
    sig_thz *= p_thz
    sig_rf = sample_fading(LINKS[2], rng, cfg.radio, p_rf.shape)
    sig_rf *= p_rf

    # the desired powers first: _others zeroes the winners' terms
    desired = np.where(serv_thz, _at(sig_thz, w_thz) * gain_des,
                       _at(sig_rf, w_rf))
    sig_thz *= gain
    interference = np.where(serv_thz, _others(sig_thz, w_thz),
                            _others(sig_rf, w_rf))
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

    base, extra = divmod(n_trials, SUBSTREAMS)
    args = ([cfg] * SUBSTREAMS, np.random.SeedSequence(seed).spawn(SUBSTREAMS),
            [base + (i < extra) for i in range(SUBSTREAMS)])
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stream_sums, *args))
    else:
        results = list(map(_stream_sums, *args))

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
