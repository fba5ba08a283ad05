"""Monte-Carlo simulation engine: the system model implemented literally.

Each trial redraws the network (AP positions, LOS/NLOS marks, antenna gains,
fading), associates by maximum average biased received power, and evaluates
the instantaneous SINR of the serving link.

The N_A AP positions are i.i.d. and independent of which APs are THz, so
taking the first ``n_thz`` columns of a trial as its THz APs has the law of
a uniformly random THz subset, and each tier is one contiguous block.
Association compares biased log-powers, so no power underflows at large
absorption.  Interference comes only from the serving tier, so a trial draws
gains and fading for its serving tier's APs alone.  A batch draws, in order:
radii, angles (off centre only) and the THz block's LOS marks
(``geometry.sample_deployment_arrays``); then, for the THz-served trials,
the desired gains, the interferer gains and the fading of the LOS then the
NLOS THz APs; then the fading of the RF-served trials' RF APs.  A seed's
stream differs from that of versions that drew for every AP of every trial.
Trials are split into ``SUBSTREAMS`` independent sub-streams, so results are
reproducible and independent of the degree of parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import desired_gain_pmf, interferer_gain_pmf, sample_gain
from .errors import ConfigError
from .geometry import sample_deployment_arrays
from .params import NetworkConfig
from .propagation import EVENTS, TierMetrics, link_table, sample_fading

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
    cond_coverage: TierMetrics        # of McEstimate; n_trials per event
    cond_rate: TierMetrics            # of McEstimate
    n_trials: int


def _best(block, pick, empty):
    """Each row's winning column of ``block`` by ``pick`` (``np.argmax`` or
    ``np.argmin``) and its value; column 0 and ``empty`` for a tier without
    APs, which wins no trial."""
    if block.shape[1] == 0:
        return np.zeros(len(block), np.intp), np.full(len(block), empty)
    col = pick(block, axis=1)
    return col, block[np.arange(len(block)), col]


def _rows(block, serv, count):
    """The ``count`` rows of ``block`` where ``serv``; ``block`` itself, not
    a copy, when that is every row."""
    return block if count == len(block) else block[serv]


def _split(sig, col):
    """(``sig[i, col[i]]``, row sums of ``sig`` without it) of every row i:
    the desired and the interfering power.  Zeroes the winners in place."""
    rows = np.arange(len(sig))
    desired = sig[rows, col]
    sig[rows, col] = 0.0
    return desired, sig.sum(axis=1)


def _log_path_gain(d, is_los, t):
    """``-alpha_c ln d - k_a d`` of every THz AP, in place of its distance d;
    alpha_c is the exponent of the AP's LOS/NLOS class."""
    ln_d = np.log(d)
    ln_d *= np.array([t.alpha[1], t.alpha[0]]).take(is_los.view(np.uint8))
    d *= -t.k_a[0]
    d -= ln_d
    return d


def _thz_served(cfg, rng, lg, los, col, m):
    """(desired, interference) of THz-served rows, without the factor amp_T,
    from their log path gains ``lg`` (overwritten), LOS marks and winners.
    Draws the desired gains, the interferer gains over the block and the
    fading of its LOS then its NLOS APs, of the shapes ``m`` (LOS, NLOS)."""
    rows = np.arange(len(col))
    g_des = sample_gain(desired_gain_pmf(cfg.antenna), rng, len(col))
    sig = np.exp(lg, out=lg)
    buf = sample_gain(interferer_gain_pmf(cfg.antenna), rng, lg.shape)
    buf[rows, col] = g_des
    sig *= buf
    # the gains are in sig now, so buf takes the fading
    flat = los.ravel()
    for shape, mask in zip(m, (flat, ~flat)):
        idx = np.flatnonzero(mask)
        np.put(buf, idx, sample_fading(shape, rng, idx.size))
    sig *= buf
    return _split(sig, col)


def _simulate_batch(cfg: NetworkConfig, rng: np.random.Generator, n: int):
    """Vectorized trials; returns (event codes 0/1/2, sinr, rate).

    Association compares biased log-powers, which neither underflow nor
    overflow.  A tier's bias is one constant, so its winner is its strongest
    AP: for THz the largest log path gain (``_log_path_gain``), for RF the
    nearest AP.  THz serves where its ``log_power`` plus its winner's log
    path gain is at least RF's ``log_power - alpha_R ln d`` of the nearest
    RF AP.  A tier without APs scores ``-inf``, so with ``B_T = 0`` THz serves
    only where there is no RF AP.

    Gains, fading and linear powers are computed for the serving tier's
    block of each row only, THz-served rows first (see the module docstring
    for the draw order).  The desired power is the winner's entry, the
    interference the sum of the rest.  Where one tier serves every row, its
    block is used in place, without a row copy.
    """
    t = link_table(cfg)
    n_thz = cfg.geometry.n_thz
    dist, is_los = sample_deployment_arrays(cfg, rng, n)
    lg = _log_path_gain(dist[:, :n_thz], is_los, t)
    d_rf = dist[:, n_thz:]
    w_thz, lg_win = _best(lg, np.argmax, -np.inf)
    w_rf, d_near = _best(d_rf, np.argmin, np.inf)
    lg_win += t.log_power[0]
    serv = lg_win >= t.log_power[2] - t.alpha[2] * np.log(d_near)
    k = np.count_nonzero(serv)

    event = np.full(n, 2)
    desired, interference = np.empty(n), np.empty(n)
    col, los = _rows(w_thz, serv, k), _rows(is_los, serv, k)
    event[serv] = ~los[np.arange(k), col]         # code 0 LOS, 1 NLOS
    desired[serv], interference[serv] = _thz_served(
        cfg, rng, _rows(lg, serv, k), los, col, t.m[:2])

    rf = ~serv
    d = _rows(d_rf, rf, n - k)
    sig = sample_fading(t.m[2], rng, d.shape)
    sig *= np.power(d, -t.alpha[2], out=d)
    desired[rf], interference[rf] = _split(sig, _rows(w_rf, rf, n - k))

    amp = t.amp[event]
    desired *= amp
    interference *= amp
    sinr = desired / (interference + t.noise[event])
    rate = t.bw[event] * np.log2(1.0 + sinr)
    return event, sinr, rate


def _stream_sums(cfg: NetworkConfig, seed_seq, n: int) -> np.ndarray:
    """Sufficient statistics of one sub-stream, a (5, 3) array.

    Rows: trial count, coverage, coverage^2, rate, rate^2, each summed per
    event (columns in ``EVENTS`` order).
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    event, sinr, rate = _simulate_batch(cfg, rng, n)
    cov = (sinr >= cfg.radio.theta).astype(float)
    return np.array([np.bincount(event, w, minlength=len(EVENTS))
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
        raise ConfigError(f"n_trials must be >= {MIN_TRIALS}, got {n_trials}")

    base, extra = divmod(n_trials, SUBSTREAMS)
    args = ([cfg] * SUBSTREAMS, np.random.SeedSequence(seed).spawn(SUBSTREAMS),
            [base + (i < extra) for i in range(SUBSTREAMS)])
    if workers > 1:
        # imported here: the pool's modules cost every import of hexnet
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stream_sums, *args))
    else:
        results = list(map(_stream_sums, *args))

    # merge in sub-stream order; float sums are reproducible because each
    # stream contributes one fixed partial per statistic
    sums = sum(results)
    count, cov1, cov2, rate1, rate2 = sums
    total = sums.sum(axis=1)
    count = [int(c) for c in count]
    return SimulationSummary(
        assoc=TierMetrics(*(c / n_trials for c in count)),
        coverage=_mc_estimate(n_trials, total[1], total[2]),
        rate=_mc_estimate(n_trials, total[3], total[4]),
        cond_coverage=TierMetrics(*map(_mc_estimate, count, cov1, cov2)),
        cond_rate=TierMetrics(*map(_mc_estimate, count, rate1, rate2)),
        n_trials=n_trials,
    )
