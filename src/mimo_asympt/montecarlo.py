"""Seeded, worker-count-invariant Monte Carlo engine.

Trials are split into fixed batches of 4096; each batch regenerates its
channels from the block-keyed Philox streams, one block per chunk, whose
rows fall with N·M, and evaluates the exact receiver quantities in stacked
form at every SNR of the run, so the points of an SNR grid share one draw.
Batches may run on any number of threads: each writes its samples into its
own slice of the run's arrays, every sum is taken within each fixed batch by
numpy, the per-batch sums are combined exactly (math.fsum, in batch order),
and every other reduction is a deterministic function of the arrays in trial
order, so the resulting summary is bit-identical for any worker count.

Sample retention: every run keeps the full sorted mutual-information vector
of each receiver at each SNR, so outage and KS evaluations resolve
probabilities to 1/n_trials. Each receiver has one (points x trials) array
that the batches fill in place, in trial order; a point's summary holds its
row, sorted in place, so each point keeps 16 bytes per trial.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import CorrelationPair, SystemConfig, _block_rows, _draw_channels
from .gaussian import MutualInfoGaussian, outage_probability
from .mmse import gram, receiver_values

__all__ = [
    "TrialBatchSpec",
    "EmpiricalSummary",
    "MonteCarloError",
    "WorkerCountError",
    "run_trials",
    "run_trials_grid",
    "empirical_outage",
    "ks_distance",
    "summary_to_json",
    "write_samples_csv",
]

_BATCH = 4096
_Z95 = 1.959963984540054


class MonteCarloError(RuntimeError):
    """Trial execution aborted; completed_trials counts finished batches."""

    def __init__(self, message: str, completed_trials: int):
        self.completed_trials = completed_trials
        super().__init__(f"{message} (completed {completed_trials} trials)")


class WorkerCountError(ValueError):
    """MIMO_ASYMPT_THREADS is set to something other than a non-negative integer."""


@dataclass(frozen=True)
class TrialBatchSpec:
    config: SystemConfig
    pair: CorrelationPair
    n_trials: int
    master_seed: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        self.pair._check_fits(self.config)
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")


@dataclass(frozen=True)
class EmpiricalSummary:
    """Sample statistics of one Monte Carlo batch.

    mi_samples / opt_samples hold every trial's value, sorted ascending, so
    len(mi_samples) == n_trials. SINR moments are per-stream:
    mean vector, covariance matrix (unbiased), and skewness vector.
    mi_var_se is a jackknife-over-blocks standard error of mi_var (None
    when unavailable).
    """

    mi_samples: np.ndarray
    opt_samples: np.ndarray
    sinr_mean: np.ndarray
    sinr_cov: np.ndarray
    sinr_skew: np.ndarray
    mi_mean: float
    mi_var: float
    mi_skewness: float
    opt_mean: float
    opt_var: float
    n_trials: int
    master_seed: int
    mi_var_se: Optional[float] = None


def _worker_count(requested=None) -> int:
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("MIMO_ASYMPT_THREADS", "").strip()
    try:
        cap = int(env) if env else 0
    except ValueError:
        cap = -1
    if cap < 0:
        raise WorkerCountError(
            f"MIMO_ASYMPT_THREADS must be a non-negative integer, got {env!r}"
        )
    return cap if cap > 0 else (os.cpu_count() or 1)


def _batch_stats(spec: TrialBatchSpec, rhos, lo: int, hi: int, mi, opt):
    """Write trials [lo, hi)'s MIs at rhos[p] into mi[p] and opt[p]; return the sums by point.

    A chunk is one Philox block of _block_rows(N, M) trials, at most 512 rows
    and 2**15 channel entries, so the working set stays small at every channel
    size and no chunk redraws a row; its Gram matrix serves every SNR.
    """
    m, rows = spec.config.M, _block_rows(spec.config.N, spec.config.M)
    gam, x, y = np.empty((len(rhos), hi - lo, m)), mi[:, lo:hi], opt[:, lo:hi]
    for c in range(0, hi - lo, rows):
        g = gram(_draw_channels(spec.pair, spec.master_seed, lo + c, min(lo + c + rows, hi)))
        for p, rho in enumerate(rhos):
            gam[p, c:c + rows], x[p, c:c + rows], y[p, c:c + rows] = receiver_values(g, rho)
    return {
        "g1": gam.sum(axis=1),
        "g2": gam.transpose(0, 2, 1) @ gam,
        "g3": (gam**3).sum(axis=1),
        "mi_s": np.stack([x.sum(axis=1), (x**2).sum(axis=1), (x**3).sum(axis=1)], axis=1),
        "opt_s": np.stack([y.sum(axis=1), (y**2).sum(axis=1)], axis=1),
    }


def _fsum_axis(parts):
    """Exact sum of a list of equally-shaped arrays (math.fsum per entry)."""
    flat = np.stack(parts).reshape(len(parts), -1)
    out = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
    return out.reshape(parts[0].shape)


def _jackknife_var_se(x: np.ndarray, blocks: int = 64):
    """Leave-one-block-out jackknife SE of the (unbiased) sample variance."""
    n = len(x)
    if n < 4 * blocks:
        return None
    edges = np.linspace(0, n, blocks + 1, dtype=int)
    s1 = np.array([x[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])
    s2 = np.array([(x[a:b] ** 2).sum() for a, b in zip(edges[:-1], edges[1:])])
    nb = np.diff(edges)
    rest_n = n - nb
    rest_mean = (s1.sum() - s1) / rest_n
    rest_var = ((s2.sum() - s2) / rest_n - rest_mean**2) * rest_n / (rest_n - 1)
    mean_est = rest_var.mean()
    return float(np.sqrt((blocks - 1) / blocks * np.sum((rest_var - mean_est) ** 2)))


def _summarize(sums, mi, opt, m: int, master_seed: int) -> EmpiricalSummary:
    """One point's summary from its run-wide sums and its trial-order mi/opt, sorted in place."""
    n = len(mi)
    g1, g2, g3 = sums["g1"], sums["g2"], sums["g3"]
    sinr_mean = g1 / n
    sinr_cov = (g2 - np.outer(g1, g1) / n) / (n - 1) if n > 1 else np.zeros((m, m))
    sinr_cov = 0.5 * (sinr_cov + sinr_cov.T)
    m2 = np.maximum(np.diagonal(g2) / n - sinr_mean**2, 0.0)
    m3 = g3 / n - 3 * sinr_mean * np.diagonal(g2) / n + 2 * sinr_mean**3
    sinr_skew = np.where(m2 > 0, m3 / np.where(m2 > 0, m2, 1.0) ** 1.5, 0.0)

    mi_s1, mi_s2, mi_s3 = sums["mi_s"]
    opt_s1, opt_s2 = sums["opt_s"]

    mi_mean = mi_s1 / n
    opt_mean = opt_s1 / n
    bessel = n / (n - 1) if n > 1 else 1.0
    mi_m2 = max(mi_s2 / n - mi_mean**2, 0.0)
    mi_var = mi_m2 * bessel
    opt_var = max(opt_s2 / n - opt_mean**2, 0.0) * bessel
    mi_m3 = mi_s3 / n - 3 * mi_mean * mi_s2 / n + 2 * mi_mean**3
    mi_skew = float(mi_m3 / mi_m2**1.5) if mi_m2 > 0 else 0.0

    mi_var_se = _jackknife_var_se(mi)
    mi.sort()
    opt.sort()
    return EmpiricalSummary(
        mi_samples=mi, opt_samples=opt,
        sinr_mean=sinr_mean, sinr_cov=sinr_cov, sinr_skew=sinr_skew,
        mi_mean=float(mi_mean), mi_var=float(mi_var), mi_skewness=mi_skew,
        opt_mean=float(opt_mean), opt_var=float(opt_var),
        n_trials=n, master_seed=master_seed, mi_var_se=mi_var_se,
    )


def run_trials_grid(spec: TrialBatchSpec, rhos, n_workers=None):
    """Run the trials once and evaluate them at every SNR in rhos (linear).

    Returns one EmpiricalSummary per entry of rhos, in order; spec.config.rho
    is not read. Every point sees the same channel realizations, and each
    summary is bit-identical to run_trials at that SNR alone. The result is
    a pure function of (spec, rhos): batch boundaries are fixed at 4096
    trials, each trial's randomness depends only on (master_seed, trial index),
    and all reductions run in fixed batch order. n_workers defaults to the
    MIMO_ASYMPT_THREADS environment variable (0 or unset = all cores).
    Running out of memory, while allocating the samples, drawing or
    summarizing, raises MonteCarloError.
    """
    # replace() re-runs SystemConfig's checks on every SNR
    rhos = [replace(spec.config, rho=float(r)).rho for r in rhos]
    if not rhos:
        raise ValueError("need at least one SNR point")
    n = spec.n_trials
    workers = _worker_count(n_workers)

    batches = []
    try:
        mi, opt = np.empty((len(rhos), n)), np.empty((len(rhos), n))
        lo_hi = [(lo, min(lo + _BATCH, n)) for lo in range(0, n, _BATCH)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for stats in pool.map(lambda b: _batch_stats(spec, rhos, *b, mi, opt), lo_hi):
                batches.append(stats)
        sums = {key: _fsum_axis([b[key] for b in batches]) for key in batches[0]}
        return [_summarize({key: v[p] for key, v in sums.items()}, mi[p], opt[p],
                           spec.config.M, spec.master_seed) for p in range(len(rhos))]
    except MemoryError as exc:
        completed = min(len(batches) * _BATCH, n)
        raise MonteCarloError("out of memory during trial execution", completed) from exc


def run_trials(spec: TrialBatchSpec, n_workers=None) -> EmpiricalSummary:
    """Run the trials at spec.config.rho and aggregate: the one-point run_trials_grid."""
    return run_trials_grid(spec, [spec.config.rho], n_workers)[0]


def _samples_for(summary: EmpiricalSummary, receiver: str) -> np.ndarray:
    if receiver == "mmse":
        return summary.mi_samples
    if receiver == "optimal":
        return summary.opt_samples
    raise ValueError(f"unknown receiver {receiver!r}")


def empirical_outage(summary: EmpiricalSummary, rate_nats, receiver: str = "mmse"):
    """Fraction of samples <= rate, with its Wilson 95% half-width.

    Returns (probability, halfwidth): floats for a scalar rate, arrays of its
    shape, elementwise, for an array of rates.
    """
    n = summary.n_trials
    p = np.searchsorted(_samples_for(summary, receiver), rate_nats, side="right") / n
    z2 = _Z95 * _Z95
    halfwidth = _Z95 / (1.0 + z2 / n) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (float(p), float(halfwidth)) if np.ndim(p) == 0 else (p, halfwidth)


def ks_distance(summary: EmpiricalSummary, model: MutualInfoGaussian) -> float:
    """sup_x |ECDF(x) - Phi((x - c1)/sqrt(c2))| over the sample points.

    The receiver whose samples are compared is taken from the model; they are
    read _BATCH at a time, so the memory taken stays bounded.
    """
    if model.c2 <= 0:
        raise ValueError("model variance must be positive for a KS distance")
    xs = _samples_for(summary, model.receiver)
    n, gap = len(xs), -np.inf
    for lo in range(0, n, _BATCH):
        f_model = outage_probability(model, xs[lo:lo + _BATCH])
        rank = np.arange(lo, lo + len(f_model))
        gap = max(gap, ((rank + 1) / n - f_model).max(), (f_model - rank / n).max())
    return float(gap)


def summary_to_json(summary: EmpiricalSummary, config: SystemConfig = None) -> str:
    """Deterministic JSON of the scalar cumulants and metadata (nats)."""
    doc = {
        "n_trials": summary.n_trials,
        "master_seed": summary.master_seed,
        "mi_mean": summary.mi_mean,
        "mi_var": summary.mi_var,
        "mi_var_se": summary.mi_var_se,
        "mi_skewness": summary.mi_skewness,
        "opt_mean": summary.opt_mean,
        "opt_var": summary.opt_var,
        "sinr_mean": summary.sinr_mean.tolist(),
        "sinr_cov": summary.sinr_cov.tolist(),
        "sinr_skew": summary.sinr_skew.tolist(),
    }
    if config is not None:
        doc["config"] = {"M": config.M, "N": config.N, "rho": config.rho}
    return json.dumps(doc, sort_keys=True, indent=2)


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV under one header line, %.12g, _BATCH rows at a time."""
    fmt = ",".join(["%.12g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _BATCH):
            block = np.column_stack([np.asarray(c)[lo:lo + _BATCH] for c in columns])
            f.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_samples_csv(summary: EmpiricalSummary, path) -> None:
    """Write the sorted sample columns as CSV, header mi_nats,opt_nats."""
    _write_csv(path, ["mi_nats", "opt_nats"], [summary.mi_samples, summary.opt_samples])
