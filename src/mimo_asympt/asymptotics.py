"""Deterministic equivalents of the receiver statistics.

The large-system behaviour of the log-det and SINR functionals is governed
by two coupled scalar equations,

    t = (1/M) Tr[ sqrt(rho) R (I + sqrt(rho) r R)^{-1} ]
    r = (1/M) Tr[ sqrt(rho) Tt (I + sqrt(rho) t Tt)^{-1} ],   Tt = T J_k(x),

where J_k(x) = I + (x - 1) d_k rescales one diagonal entry of the transmit
side (x = 1 leaves it untouched, x = 0 deletes stream k). Both traces only
involve spectra, so each correlation matrix is diagonalized once and every
iteration is O(M + N).

With the traces written t = f(r), r = g(t), h(t) = t - f(g(t)) = 0 is solved
by Newton's method, h' = 1 - f'(r) g'(t) (1 - m_t2*m_r2 at the root). A step
out of the sign bracket bisects it or, before any h > 0 point is known, is
replaced by substitution t -> f(g(t)), which never passes the root since f o g
increases. A deformation x < 0 makes h < 0 again near the domain edge, so
there a Newton point with h < 0 bounds the root only once an h > 0 point does.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Deformation",
    "FixedPointSolution",
    "MeanSinrResult",
    "NonConvergence",
    "StabilityViolation",
    "solve_fixed_point",
    "mean_logdet_asymptotic",
    "mean_sinr_asymptotic",
]

class NonConvergence(RuntimeError):
    """Fixed-point iteration exhausted max_iter without meeting tol."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed point did not converge: residual {residual:.3e} after {iterations} iterations"
        )


class StabilityViolation(RuntimeError):
    """The saddle-point stability factor left (0, 1]; parameters are invalid."""


@dataclass(frozen=True)
class Deformation:
    """Single-entry transmit deformation J_index(x); index is 0-based."""

    index: int
    x: float


@dataclass(frozen=True)
class FixedPointSolution:
    t: float
    r: float
    residual: float
    iterations: int
    deformation: Optional[Deformation] = None


@dataclass(frozen=True)
class MeanSinrResult:
    """Leading-order mean SINRs, their 1/N corrections, and the pieces behind them.

    gamma_bar[k] = 1/eta[k] - 1 with eta the diagonal of (I + t0 T sqrt(rho))^{-1};
    delta_gamma[k] = (1/M) (eta_prime[k]^2 / eta[k]^3) m_r2 / (1 - m_t2 m_r2).
    """

    gamma_bar: np.ndarray
    delta_gamma: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    m_t2: float
    m_r2: float


def deformed_transmit_spectrum(pair, deformation: Optional[Deformation]) -> np.ndarray:
    """Eigenvalues of T J_k(x) (real, via the Hermitian form T^{1/2} J T^{1/2})."""
    if deformation is None or deformation.x == 1.0:
        return pair.t_eigvals
    k, x = deformation.index, deformation.x
    if not (0 <= k < pair.m):
        raise IndexError(f"deformation index {k} out of range for M={pair.m}")
    u = pair.t_sqrt[:, k]
    return np.linalg.eigvalsh(pair.T + (x - 1.0) * np.outer(u, u.conj()))


def _trace_sum(eigs: np.ndarray, scale: float, sr: float, m: int):
    # (1/M) Tr[ sqrt(rho) A (I + sqrt(rho) s A)^{-1} ] for Hermitian-spectrum A, and d/ds
    denom = 1.0 + sr * scale * eigs
    if denom.min() <= 0.0:
        # the resolvent pole was crossed: a deformation x < 0 below -1/(sqrt(rho) t)
        raise StabilityViolation("deformed resolvent left the positive domain")
    q = eigs / denom
    return float((sr / m) * np.sum(q)), float(-(sr * sr / m) * np.sum(q * q))


def solve_fixed_point(pair, config, deformation: Optional[Deformation] = None,
                      tol: float = 1e-12, max_iter: int = 10000) -> FixedPointSolution:
    """Solve the coupled (t, r) equations for the given deformation.

    Converged when |t - f(g(t))| <= tol. Deterministic in its inputs. Raises
    NonConvergence when max_iter is exhausted, carrying (iterations, residual).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, n, rho = config.M, config.N, config.rho
    sr = np.sqrt(rho)
    lam = pair.r_eigvals
    nu = deformed_transmit_spectrum(pair, deformation)

    t, trusted = sr * min(1.0, n / m) / (1.0 + sr), True
    lo, hi, f_lo = 0.0, np.inf, None     # h(lo) < 0 < h(hi), f_lo = F(lo)
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        try:
            r, g_t = _trace_sum(nu, t, sr, m)
            f_r, f_r_prime = _trace_sum(lam, r, sr, m)
            h, dh = t - f_r, 1.0 - f_r_prime * g_t
            residual = abs(h)
        except StabilityViolation:
            if trusted:   # no root before the domain edge
                raise
            h = -np.inf   # past the domain edge
        if residual <= tol:
            break
        if h > 0.0:
            hi = t
        elif trusted:
            lo, f_lo = t, f_r
        # an untrusted point with h < 0 takes the fallback step from lo
        t_new = t - h / dh if (trusted or h > 0.0) and dh > 0.0 else np.nan
        inside = lo < t_new < hi
        t = t_new if inside else (0.5 * (lo + hi) if hi < np.inf else f_lo)
        trusted = not inside or hi < np.inf or nu.min() >= 0.0
    else:
        raise NonConvergence(max_iter, float(residual))

    return FixedPointSolution(t=float(t), r=float(r), residual=float(residual),
                              iterations=iterations, deformation=deformation)


def mean_logdet_asymptotic(pair, config, solution: FixedPointSolution) -> float:
    """Asymptotic mean of Tr log[I + (rho/M) H J H^H] at the given fixed point.

    Tr log(I + sqrt(rho) t Tt) - M t r + Tr log(I + sqrt(rho) r R), in nats,
    with J the solution's own deformation. For J = I this is the mean mutual
    information of the optimal receiver.
    """
    m, rho = config.M, config.rho
    sr = np.sqrt(rho)
    lam = pair.r_eigvals
    nu = deformed_transmit_spectrum(pair, solution.deformation)
    arg_t = sr * solution.t * nu
    arg_r = sr * solution.r * lam
    if np.min(arg_t) <= -1.0 or np.min(arg_r) <= -1.0:
        raise StabilityViolation("log argument left the positive domain")
    return float(np.log1p(arg_t).sum() - m * solution.t * solution.r + np.log1p(arg_r).sum())


def mean_sinr_asymptotic(pair, config, tol: float = 1e-12,
                         max_iter: int = 10000) -> MeanSinrResult:
    """Per-stream mean SINRs with their 1/N corrections.

    Everything is evaluated at the undeformed (J = I) solution (t0, r0):
    the deformation enters only through the linearized shift that produces
    delta_gamma. Raises StabilityViolation if 1 - m_t2 m_r2 <= 0.
    """
    m, rho = config.M, config.rho
    sr = np.sqrt(rho)
    sol0 = solve_fixed_point(pair, config, None, tol=tol, max_iter=max_iter)
    t0, r0 = sol0.t, sol0.r

    d = pair.t_eigvals
    w = np.abs(pair.t_eigvecs) ** 2         # w[k, j] = |U_kj|^2
    denom = 1.0 + sr * t0 * d
    eta = w @ (1.0 / denom)
    eta_prime = -(w @ (sr * d / denom**2))

    lam = pair.r_eigvals
    m_t2 = float(np.sum((sr * d / denom) ** 2) / m)
    m_r2 = float(np.sum((sr * lam / (1.0 + sr * r0 * lam)) ** 2) / m)
    stability = 1.0 - m_t2 * m_r2
    if stability <= 0.0:
        raise StabilityViolation(
            f"1 - m_t2*m_r2 = {stability:.3e} <= 0 at rho={rho}, M={m}, N={config.N}"
        )

    gamma_bar = 1.0 / eta - 1.0
    delta_gamma = (eta_prime**2 / eta**3) * (m_r2 / stability) / m
    return MeanSinrResult(gamma_bar=gamma_bar, delta_gamma=delta_gamma, eta=eta,
                          eta_prime=eta_prime, m_t2=m_t2, m_r2=m_r2)
