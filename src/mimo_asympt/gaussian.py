"""Gaussian model of the mutual information and outage probabilities.

Assembles mean c1 and variance c2 of the per-stream mutual information sum
(nats) from the asymptotic SINR statistics, for both the MMSE and the
optimal receiver, and evaluates P(I <= R) under the Gaussian approximation.
One stacked fixed-point solve serves an SNR grid: per point, both receivers'
models read its undeformed lane, the one the mean SINRs carry (the optimal
mean is the log-det at it, its variance -log(1 - m_t2 m_r2) uses the same
m_t2 and m_r2 as delta_gamma), and the covariance its M deflated lanes.

Two mean assemblies are provided. The "as-printed" form adds the raw
correction sum(delta_gamma_k + Sigma_kk); the "taylor" form (default) is the
standard second-order expansion of E[log(1 + gamma)],

    c1 = sum_k [ log(1+gb_k) + dg_k/(1+gb_k) - Sigma_kk/(2 (1+gb_k)^2) ].

The two agree at leading order but differ substantially in the O(1) term at
moderate SNR; Monte Carlo sides with "taylor" (sub-percent agreement where
the as-printed form is tens of percent off), so comparisons report both.

Under identity correlations the covariance fed to the assembly is the
asymptotic closed forms (v_d/M, v_od/M^2): those are the coefficients
the Gaussian limit is built from, and they reproduce simulated means and
variances noticeably better than the finite-M matrix, whose extra O(1/M)
content overshoots once mapped through the log. Correlated pairs use the
exact finite-M covariance, sinr_covariance_exact, the only general path.
"""

from dataclasses import dataclass, field, replace
import math
from typing import Optional

import numpy as np

from .asymptotics import (Deformation, MeanSinrResult, mean_logdet_asymptotic,
                          mean_sinr_asymptotic, solve_fixed_point)
from .covariance import SinrCovariance, iid_closed_forms, sinr_covariance_exact

__all__ = [
    "MutualInfoGaussian",
    "mmse_mi_mean",
    "mmse_mi_variance",
    "mmse_mi_gaussian",
    "mmse_mi_gaussian_grid",
    "optimal_mi_gaussian",
    "outage_probability",
]


@dataclass(frozen=True)
class MutualInfoGaussian:
    """Gaussian parameters of a receiver's mutual information, in nats.

    c1 = M*c10 + c11 is the mean, c2 the variance; c10 is the per-stream
    leading term and c11 the O(1) correction. variant records which mean
    assembly produced c11 ("taylor" or "as-printed"; None for the optimal
    receiver, whose mean needs no expansion). mean_sinr and sigma are the
    inputs an MMSE model was assembled from, and optimal is the optimal
    receiver's model at the same point (all None for the optimal receiver).
    """

    c1: float
    c2: float
    c10: float
    c11: float
    receiver: str
    variant: Optional[str] = None
    # these hold arrays or another model, so they stay out of == and repr
    mean_sinr: Optional[MeanSinrResult] = field(default=None, compare=False, repr=False)
    sigma: Optional[SinrCovariance] = field(default=None, compare=False, repr=False)
    optimal: Optional["MutualInfoGaussian"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.c2 < 0:
            raise ValueError(f"variance must be nonnegative, got {self.c2}")


def mmse_mi_mean(mean_sinr: MeanSinrResult, sigma: SinrCovariance,
                 variant: str = "taylor"):
    """Mean of the MMSE mutual information; returns (c1, c10, c11)."""
    gb = mean_sinr.gamma_bar
    dg = mean_sinr.delta_gamma
    skk = np.diagonal(sigma.sigma)
    leading = float(np.log1p(gb).sum())
    if variant == "taylor":
        c11 = float(np.sum(dg / (1.0 + gb) - skk / (2.0 * (1.0 + gb) ** 2)))
    elif variant == "as-printed":
        c11 = float(np.sum(dg + skk))
    else:
        raise ValueError(f"unknown mean variant {variant!r}")
    c10 = leading / len(gb)
    return leading + c11, c10, c11


def mmse_mi_variance(mean_sinr: MeanSinrResult, sigma: SinrCovariance) -> float:
    """Variance of the MMSE mutual information: w^T Sigma w with w_k = 1/(1+gb_k)."""
    w = 1.0 / (1.0 + mean_sinr.gamma_bar)
    return float(w @ sigma.sigma @ w)


def _closed_form_sigma(config) -> SinrCovariance:
    m, cf = config.M, iid_closed_forms(config)
    sigma = np.full((m, m), cf.v_od / (m * m))
    np.fill_diagonal(sigma, cf.v_d / m)
    return SinrCovariance(sigma=sigma, method="iid-closed-form")


def mmse_mi_gaussian(pair, config, variant: str = "taylor", step: float = 1e-3,
                     tol: float = 1e-12, max_iter: int = 10000) -> MutualInfoGaussian:
    """The one-point mmse_mi_gaussian_grid at config.rho; step has no effect
    (perfbench/worker.py passes it, and tests/test_bench_contract.py pins it)."""
    return mmse_mi_gaussian_grid(pair, config, [config.rho], variant, tol, max_iter)[0]


def mmse_mi_gaussian_grid(pair, config, rhos, variant: str = "taylor", tol: float = 1e-12,
                          max_iter: int = 10000) -> list:
    """Gaussian parameters of the MMSE receiver's mutual information at each SNR in rhos.

    config gives M and N (its rho is not read). One stacked solve serves the
    grid; lanes never mix, so each point's model is the one it gets alone. The
    covariance is the identity-correlation closed forms for an identity pair
    and the exact implicit-differentiation matrix otherwise. Each model carries
    the mean SINRs and covariance it was assembled from, and the point's
    optimal-receiver model, read from the same mean SINRs.
    """
    configs = [replace(config, rho=float(r)) for r in rhos]
    streams = np.arange(0 if pair.is_identity else config.M)
    per = 1 + len(streams)   # a point's lanes: undeformed (x = 1), then stream k deflated (x = 0)
    dfm = Deformation(np.tile(np.r_[0, streams], len(configs)),
                      np.tile(np.r_[1.0, np.zeros(len(streams))], len(configs)))
    sol = solve_fixed_point(pair, config, dfm, tol=tol, max_iter=max_iter,
                            rho=np.repeat([c.rho for c in configs], per))
    models = []
    for p, cfg in enumerate(configs):
        ms = mean_sinr_asymptotic(pair, cfg, solution=sol.lanes(p * per))
        sigma = _closed_form_sigma(cfg) if pair.is_identity else sinr_covariance_exact(
            pair, cfg, solution=sol.lanes(slice(p * per + 1, (p + 1) * per)))
        c1, c10, c11 = mmse_mi_mean(ms, sigma, variant)
        models.append(MutualInfoGaussian(c1=c1, c2=mmse_mi_variance(ms, sigma), c10=c10, c11=c11,
                                         receiver="mmse", variant=variant, mean_sinr=ms,
                                         sigma=sigma, optimal=_optimal_model(pair, cfg, ms)))
    return models


def _optimal_model(pair, config, ms: MeanSinrResult) -> MutualInfoGaussian:
    c1 = mean_logdet_asymptotic(pair, config, ms.solution)
    return MutualInfoGaussian(c1=c1, c2=float(-np.log1p(-ms.m_t2 * ms.m_r2)), c10=c1 / config.M,
                              c11=0.0, receiver="optimal")


def optimal_mi_gaussian(pair, config, tol: float = 1e-12,
                        max_iter: int = 10000) -> MutualInfoGaussian:
    """Gaussian parameters of the optimal receiver's log-det mutual information.

    Read from the undeformed mean-SINR solution: the mean is the asymptotic
    log-det there, and the variance the joint cumulant kernel at the
    undeformed point, -log(1 - m_t2 m_r2).
    """
    return _optimal_model(pair, config, mean_sinr_asymptotic(pair, config, tol=tol,
                                                              max_iter=max_iter))


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z):
    """Standard normal CDF of a scalar or an array, accurate in both tails."""
    return 0.5 * np.asarray(_ERFC(-np.asarray(z) / math.sqrt(2.0)), dtype=np.float64)


def outage_probability(model: MutualInfoGaussian, rate_nats):
    """P(I <= R) under the Gaussian model: Phi((R - c1) / sqrt(c2)).

    Oriented as a CDF (nondecreasing in R). Degenerate c2 = 0 is the step
    function at c1, with value 1/2 at the step. A scalar rate gives a float,
    an array of rates an array of its shape, elementwise.
    """
    r = np.asarray(rate_nats, dtype=np.float64)
    if model.c2 == 0.0:
        p = np.where(r < model.c1, 0.0, np.where(r == model.c1, 0.5, 1.0))
    else:
        p = _normal_cdf((r - model.c1) / math.sqrt(model.c2))
    return float(p) if p.ndim == 0 else p
