"""Gaussian model of the mutual information and outage probabilities.

Assembles mean c1 and variance c2 of the per-stream mutual information sum
(nats) from the asymptotic SINR statistics, for both the MMSE and the
optimal receiver, and evaluates P(I <= R) under the Gaussian approximation.

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

from dataclasses import dataclass, field
import math
from typing import Optional

import numpy as np

from .asymptotics import MeanSinrResult, StabilityViolation, mean_logdet_asymptotic, \
    mean_sinr_asymptotic, solve_fixed_point
from .covariance import SinrCovariance, iid_closed_forms, sinr_covariance_exact

__all__ = [
    "MutualInfoGaussian",
    "mmse_mi_mean",
    "mmse_mi_variance",
    "mmse_mi_gaussian",
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
    inputs an MMSE model was assembled from (None for the optimal receiver).
    """

    c1: float
    c2: float
    c10: float
    c11: float
    receiver: str
    variant: Optional[str] = None
    # both hold arrays, so they stay out of == and repr
    mean_sinr: Optional[MeanSinrResult] = field(default=None, compare=False, repr=False)
    sigma: Optional[SinrCovariance] = field(default=None, compare=False, repr=False)

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
    cf = iid_closed_forms(config)
    m = config.M
    sigma = np.full((m, m), cf.v_od / (m * m))
    np.fill_diagonal(sigma, cf.v_d / m)
    return SinrCovariance(sigma=sigma, step=0.0, method="iid-closed-form")


def mmse_mi_gaussian(pair, config, variant: str = "taylor", step: float = 1e-3,
                     tol: float = 1e-12, max_iter: int = 10000) -> MutualInfoGaussian:
    """Gaussian parameters of the MMSE receiver's mutual information.

    The covariance is the identity-correlation closed forms for an identity
    pair and the exact implicit-differentiation matrix otherwise; the model
    carries the mean SINRs and the covariance it was assembled from. step
    has no effect: it is kept only for callers that still pass it.
    """
    ms = mean_sinr_asymptotic(pair, config, tol=tol, max_iter=max_iter)
    if pair.is_identity:
        sigma = _closed_form_sigma(config)
    else:
        sigma = sinr_covariance_exact(pair, config, tol=tol, max_iter=max_iter)
    c1, c10, c11 = mmse_mi_mean(ms, sigma, variant)
    return MutualInfoGaussian(c1=c1, c2=mmse_mi_variance(ms, sigma), c10=c10, c11=c11,
                              receiver="mmse", variant=variant, mean_sinr=ms, sigma=sigma)


def optimal_mi_gaussian(pair, config, tol: float = 1e-12,
                        max_iter: int = 10000) -> MutualInfoGaussian:
    """Gaussian parameters of the optimal receiver's log-det mutual information.

    Mean from the undeformed asymptotic log-det, variance from the joint
    cumulant kernel at the undeformed point, -log(1 - m_t2 m_r2).
    """
    m, rho = config.M, config.rho
    sr = np.sqrt(rho)
    sol = solve_fixed_point(pair, config, None, tol=tol, max_iter=max_iter)
    c1 = mean_logdet_asymptotic(pair, config, sol)
    d = pair.t_eigvals
    lam = pair.r_eigvals
    m_t = (rho / m) * float(np.sum((d / (1.0 + sr * sol.t * d)) ** 2))
    m_r = (rho / m) * float(np.sum((lam / (1.0 + sr * sol.r * lam)) ** 2))
    arg = m_t * m_r
    if arg >= 1.0:
        raise StabilityViolation(f"1 - M_t*M_r = {1.0 - arg:.3e} <= 0")
    c2 = float(-np.log1p(-arg))
    return MutualInfoGaussian(c1=c1, c2=c2, c10=c1 / m, c11=0.0,
                              receiver="optimal", variant=None)


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z):
    """Standard normal CDF of a scalar or an array, accurate in both tails."""
    return 0.5 * np.asarray(_ERFC(-np.asarray(z) / math.sqrt(2.0)), dtype=np.float64)


def outage_probability(model: MutualInfoGaussian, rate_nats: float) -> float:
    """P(I <= R) under the Gaussian model: Phi((R - c1) / sqrt(c2)).

    Oriented as a CDF (nondecreasing in R). Degenerate c2 = 0 is the step
    function at c1, with value 1/2 at the step.
    """
    if model.c2 == 0.0:
        if rate_nats < model.c1:
            return 0.0
        return 0.5 if rate_nats == model.c1 else 1.0
    return float(_normal_cdf((rate_nats - model.c1) / math.sqrt(model.c2)))
