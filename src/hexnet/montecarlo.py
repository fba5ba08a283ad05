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

Memory: ``estimate`` creates one ``_Workspace`` per call (with
``workers > 1``, one per worker's chunk of consecutive sub-streams), sized
for its largest sub-stream, and frees it on return.  Each sub-stream writes
every array of one row per trial and a tier's columns into views of it
sized to its own rows, so beyond the workspace a batch allocates only
arrays of one entry per trial and the index arrays of the fading draws.
Rows past a shorter sub-stream's own keep stale values and are never read.
The draws, their order and their counts are those listed above, so a
workspace changes no result.
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


class _Workspace:
    """Scratch arrays shared by the sub-streams of one estimate, or of one
    worker's chunk of them: three float64 arrays of ``rows * N_A`` and two
    bool arrays of ``rows * n_thz`` elements, ``rows`` the largest
    sub-stream's trials."""

    def __init__(self, cfg: NetworkConfig, rows: int):
        g = cfg.geometry
        self.f = tuple(np.empty(rows * g.N_A) for _ in range(3))
        self.b = tuple(np.empty(rows * g.n_thz, bool) for _ in range(2))


def _view(buf, rows, cols):
    """The first ``rows * cols`` elements of the flat ``buf``, as a
    (rows, cols) array."""
    return buf[:rows * cols].reshape(rows, cols)


def _best(block, pick, empty):
    """Each row's winning column of ``block`` by ``pick`` (``np.argmax`` or
    ``np.argmin``) and its value; column 0 and ``empty`` for a tier without
    APs, which wins no trial.  ``block`` is C-contiguous, so ``pick`` does
    not copy it."""
    if block.shape[1] == 0:
        return np.zeros(len(block), np.intp), np.full(len(block), empty)
    col = pick(block, axis=1)
    return col, block[np.arange(len(block)), col]


def _rows(block, serv, count, buf):
    """The ``count`` rows of ``block`` where ``serv``, copied into a view of
    the flat ``buf``; ``block`` itself, not a copy, when that is every row."""
    if count == len(block):
        return block
    return block.take(np.flatnonzero(serv), axis=0, mode="clip",
                      out=_view(buf, count, block.shape[1]))


def _split(sig, col):
    """(``sig[i, col[i]]``, row sums of ``sig`` without it) of every row i:
    the desired and the interfering power.  Zeroes the winners in place."""
    rows = np.arange(len(sig))
    desired = sig[rows, col]
    sig[rows, col] = 0.0
    return desired, sig.sum(axis=1)


def _log_path_gain(d, is_los, t, out, scratch):
    """``-alpha_c ln d - k_a d`` of every THz AP, into ``out``; alpha_c is
    the exponent of the AP's LOS/NLOS class.  ``scratch``, of d's shape, is
    overwritten.

    alpha_c is selected by bit pattern, exactly and without a masked loop:
    its bits are those of alpha_N, XORed with bits(alpha_L) ^ bits(alpha_N)
    where the AP is LOS."""
    bits = np.array(t.alpha[:2]).view(np.int64)
    alpha = np.multiply(is_los, bits[0] ^ bits[1], out=out.view(np.int64))
    alpha ^= bits[1]
    out *= np.log(d, out=scratch)
    np.multiply(d, -t.k_a[0], out=scratch)
    return np.subtract(scratch, out, out=out)


def _thz_served(cfg, rng, lg, los, col, m, f_buf, i_buf, mask_buf):
    """(desired, interference) of THz-served rows, without the factor amp_T,
    from their log path gains ``lg`` (overwritten), LOS marks and winners.
    Draws the desired gains, the interferer gains over the block and the
    fading of its LOS then its NLOS APs, of the shapes ``m`` (LOS, NLOS).
    The flat scratch arrays are overwritten: ``f_buf`` takes the gains and
    the fading draws, ``i_buf``'s intp view the gains' atom indices and
    ``mask_buf`` the NLOS marks."""
    k, n_thz = lg.shape
    rows = np.arange(k)
    g_des = sample_gain(desired_gain_pmf(cfg.antenna), rng,
                        np.empty(k), np.empty(k, np.intp))
    sig = np.exp(lg, out=lg)
    buf = sample_gain(interferer_gain_pmf(cfg.antenna), rng,
                      _view(f_buf, k, n_thz), _view(i_buf.view(np.intp), k, n_thz))
    buf[rows, col] = g_des
    sig *= buf
    # the gains are in sig now, so f_buf takes the fading draws, each
    # multiplying sig at its AP
    flat = los.ravel()
    for shape, mask in zip(m, (flat, np.logical_not(flat, out=mask_buf[:flat.size]))):
        np.multiply.at(sig.reshape(-1), np.flatnonzero(mask), sample_fading(
            shape, rng, f_buf[:np.count_nonzero(mask)]))
    return _split(sig, col)


def _simulate_batch(cfg: NetworkConfig, rng: np.random.Generator, n: int,
                    ws: _Workspace | None = None):
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
    interference the sum of the rest.  Every array of n rows and a tier's
    columns is a view of the workspace ``ws`` (a fresh one when omitted):
    the sampler fills its ``f[0]`` and ``b[0]``; the THz log path gains and
    a copy of the RF distances, both C-contiguous, fill ``f[1]``; where both
    tiers serve, the served rows of each are copied into ``f[2]`` and
    ``b[1]``, and ``f[1]`` and ``b[0]`` are free again.
    """
    if ws is None:
        ws = _Workspace(cfg, n)
    t = link_table(cfg)
    n_thz, n_rf = cfg.geometry.n_thz, cfg.geometry.n_rf
    (d_buf, a_buf, b_buf), (los_buf, sel_buf) = ws.f, ws.b
    dist, is_los = sample_deployment_arrays(cfg, rng, n, (d_buf, a_buf, b_buf, los_buf))
    lg = _log_path_gain(dist[:, :n_thz], is_los, t, _view(a_buf, n, n_thz),
                        _view(b_buf, n, n_thz))
    d_rf = _view(a_buf[n * n_thz:], n, n_rf)
    d_rf[...] = dist[:, n_thz:]
    w_thz, lg_win = _best(lg, np.argmax, -np.inf)
    w_rf, d_near = _best(d_rf, np.argmin, np.inf)
    lg_win += t.log_power[0]
    serv = lg_win >= t.log_power[2] - t.alpha[2] * np.log(d_near)
    rf = ~serv
    k = np.count_nonzero(serv)
    lg = _rows(lg, serv, k, b_buf)
    d = _rows(d_rf, rf, n - k, b_buf[k * n_thz:])
    # the buffers that no kept block occupies
    spare, not_buf = (a_buf, los_buf) if 0 < k < n else (b_buf, sel_buf)

    event = np.full(n, 2)
    desired, interference = np.empty(n), np.empty(n)
    col, los = w_thz[serv], _rows(is_los, serv, k, sel_buf)
    event[serv] = ~los[np.arange(k), col]         # code 0 LOS, 1 NLOS
    desired[serv], interference[serv] = _thz_served(
        cfg, rng, lg, los, col, t.m[:2], d_buf, spare, not_buf)

    sig = sample_fading(t.m[2], rng, _view(d_buf, n - k, n_rf))
    sig *= np.power(d, -t.alpha[2], out=d)
    desired[rf], interference[rf] = _split(sig, w_rf[rf])

    amp = t.amp[event]
    desired *= amp
    interference *= amp
    sinr = desired / (interference + t.noise[event])
    rate = t.bw[event] * np.log2(1.0 + sinr)
    return event, sinr, rate


def _stream_sums(cfg: NetworkConfig, seed_seq, n: int, ws: _Workspace) -> np.ndarray:
    """Sufficient statistics of one sub-stream, a (5, 3) array.

    Rows: trial count, coverage, coverage^2, rate, rate^2, each summed per
    event (columns in ``EVENTS`` order).
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    event, sinr, rate = _simulate_batch(cfg, rng, n, ws)
    cov = (sinr >= cfg.radio.theta).astype(float)
    return np.array([np.bincount(event, w, minlength=len(EVENTS))
                     for w in (None, cov, cov**2, rate, rate**2)])


def _chunk_sums(cfg: NetworkConfig, seed_seqs, sizes) -> list:
    """``_stream_sums`` of consecutive sub-streams, which share one
    workspace."""
    ws = _Workspace(cfg, max(sizes))
    return [_stream_sums(cfg, s, n, ws) for s, n in zip(seed_seqs, sizes)]


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
    seed_seqs = np.random.SeedSequence(seed).spawn(SUBSTREAMS)
    sizes = [base + (i < extra) for i in range(SUBSTREAMS)]
    if workers > 1:
        # imported here: the pool's modules cost every import of hexnet
        from concurrent.futures import ProcessPoolExecutor
        step = -(-SUBSTREAMS // workers)
        parts = [slice(i, i + step) for i in range(0, SUBSTREAMS, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_chunk_sums, [cfg] * len(parts),
                              [seed_seqs[p] for p in parts],
                              [sizes[p] for p in parts])
            results = [r for chunk in chunks for r in chunk]
    else:
        results = _chunk_sums(cfg, seed_seqs, sizes)

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
