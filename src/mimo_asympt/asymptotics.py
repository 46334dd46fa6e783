"""Deterministic equivalents of the receiver statistics.

The large-system behaviour of the log-det and SINR functionals is governed
by two coupled scalar equations,

    t = (1/M) Tr[ sqrt(rho) R (I + sqrt(rho) r R)^{-1} ]
    r = (1/M) Tr[ sqrt(rho) Tt (I + sqrt(rho) t Tt)^{-1} ],   Tt = T J_k(x),

where J_k(x) = I + (x - 1) d_k rescales one diagonal entry of the transmit
side (x = 1 leaves it untouched, x = 0 deletes stream k). T^{1/2} J T^{1/2}
is the rank-one change T + c u u^H of T (c = x - 1, u = T^{1/2} e_k), so in
T's eigenbasis T = U diag(d) U^H, with s = sqrt(rho) t and q = 1/(1 + s d),
Sherman-Morrison gives Tr[Tt (I + s Tt)^{-1}] = sum d q + c a2 / (1 + s c a1),
a1 = sum |U_kj|^2 d q, a2 = sum |U_kj|^2 d q^2. As sum_j |U_kj|^2 = 1 and s d q = 1 - q,
1 + s c a1 is taken as x + (1 - x) sum |U_kj|^2 q, since 1 - s a1 (x = 0) cancels to round-off
as s a1 -> 1 at high SNR; the domain ends where it is <= 0.
A lane is one deformation at one SNR, so one solve serves a whole SNR grid, and
one iteration over K lanes costs O(K (M + N)).

Per lane, h(t) = t - f(g(t)) = 0 (t = f(r), r = g(t)) is solved by Newton's
method from t0 = sqrt(rho) min(1, N/M) / (1 + sqrt(rho)) until |h| <= tol t,
and one more step lands t at round-off. A step out of the lane's sign bracket
bisects it or, before any h > 0 point is known, is replaced by substitution
t -> f(g(t)), which never passes the root since f o g increases. A
deformation x < 0 with T_kk > 0 makes h < 0 again near the domain edge, so
there a Newton point with h < 0 bounds the root only once an h > 0 point does.
"""

from dataclasses import dataclass, field
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
    """Transmit deformation J_index(x), 0-based; arrays of index and x are a stack of lanes."""

    index: int
    x: float


@dataclass(frozen=True)
class FixedPointSolution:
    """A fixed point (t, r) and each lane's resolvent weights there, from the last pass.

    q = 1/(1 + s d), the Sherman-Morrison weight e = c/(1 + s c a1) (0 for J = I)
    and a_r = lam/(1 + sqrt(rho) r lam). For a stack of lanes t, r, residual and
    e are arrays, q and a_r hold one row per lane, and deformation lists each
    lane's (index, x).
    """

    t: float
    r: float
    residual: float
    iterations: int
    deformation: Optional[Deformation] = None
    # arrays, so they stay out of == and repr
    q: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    e: Optional[float] = field(default=None, compare=False, repr=False)
    a_r: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def lanes(self, sel):
        """Lanes sel of a stacked solve: a slice gives a stack, an int a one-lane solution."""
        one, dfm = float if isinstance(sel, int) else np.asarray, self.deformation
        return FixedPointSolution(*(one(v[sel]) for v in (self.t, self.r, self.residual)),
                                  self.iterations, Deformation(dfm.index[sel], dfm.x[sel]),
                                  self.q[sel], one(self.e[sel]), self.a_r[sel])


@dataclass(frozen=True)
class MeanSinrResult:
    """Leading-order mean SINRs, their 1/N corrections, and the pieces behind them.

    gamma_bar[k] = 1/eta[k] - 1 with eta the diagonal of (I + t0 T sqrt(rho))^{-1};
    delta_gamma[k] = (1/M) (eta_prime[k]^2 / eta[k]^3) m_r2 / (1 - m_t2 m_r2), with
    m_t2 = (rho/M) sum (d q)^2 and m_r2 = (rho/M) sum a_r^2. solution is the
    undeformed fixed point all of them were read from.
    """

    gamma_bar: np.ndarray
    delta_gamma: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    m_t2: float
    m_r2: float
    solution: FixedPointSolution = field(compare=False, repr=False)


def solve_fixed_point(pair, config, deformation: Optional[Deformation] = None,
                      tol: float = 1e-12, max_iter: int = 10000, rho=None) -> FixedPointSolution:
    """Solve the coupled (t, r) equations for the given deformation (None: J = I).

    rho, when given, is each lane's SNR in place of config.rho, broadcast with
    the deformation. A stack of lanes gives per-lane arrays, and iterations
    counts the passes. A lane stops once |t - f(g(t))| <= tol t and one more
    Newton step has been taken; lanes never mix, so each gets the result it
    gets alone. Raises NonConvergence when max_iter is exhausted, carrying
    (iterations, largest residual).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pair._check_fits(config)
    m, n, rho0 = config.M, config.N, config.rho if rho is None else rho
    k, x0 = (0, 1.0) if deformation is None else (deformation.index, deformation.x)
    index, x, rho = np.broadcast_arrays(np.atleast_1d(k), *(np.atleast_1d(np.asarray(v, float))
                                                             for v in (x0, rho0)))
    sr = np.sqrt(rho)
    if index.ndim != 1 or index.min() < 0 or index.max() >= pair.m:
        raise IndexError(f"deformation index out of range for M={pair.m}")
    d, lam, c = pair.t_eigvals, pair.r_eigvals, x - 1.0
    w = np.abs(pair.t_eigvecs[index]) ** 2   # w[i, j] = |U_kj|^2 for lane i's stream k
    psd = (x >= 0.0) | (pair.T.diagonal().real[index] == 0.0)   # T^{1/2} J T^{1/2} >= 0

    t = sr * min(1.0, n / m) / (1.0 + sr)
    trusted, polished = np.ones(len(t), dtype=bool), np.zeros(len(t), dtype=bool)
    lo, hi, f_lo = np.zeros(len(t)), np.full(len(t), np.inf), np.zeros(len(t))
    with np.errstate(divide="ignore", invalid="ignore"):   # lanes past the edge give inf
        for iterations in range(1, max_iter + 1):
            s = sr * t
            q = 1.0 / (1.0 + s[:, None] * d)
            dq = d * q
            wdq = w * dq
            a2, b2 = (wdq * q).sum(1), (wdq * dq * q).sum(1)
            den = x + (1.0 - x) * (w * q).sum(1)   # 1 + s c a1, with no cancellation
            e = c / den   # Sherman-Morrison weight; 1 - s d q = q
            r = (sr / m) * (dq.sum(1) + e * a2)
            g_t = -(rho / m) * ((dq * dq).sum(1) + e * (2.0 * b2 + e * a2 * a2))
            p = lam / (1.0 + (sr * r)[:, None] * lam)
            f_r = (sr / m) * p.sum(1)
            h, dh = t - f_r, 1.0 + (rho / m) * (p * p).sum(1) * g_t
            # past a resolvent pole: 1 + s c a1 <= 0 (T side) or 1 + sqrt(rho) r lam_max <= 0
            edge = (den <= 0.0) | (sr * r * lam[-1] <= -1.0)
            if np.any(edge & trusted):   # no root before the domain edge
                raise StabilityViolation("deformed resolvent left the positive domain")
            h[edge] = -np.inf
            residual = np.abs(h)
            converged = residual <= tol * t
            done = converged & polished
            if done.all():
                break
            positive = h > 0.0
            hi = np.where(positive, t, hi)
            low = ~positive & trusted
            lo, f_lo = np.where(low, t, lo), np.where(low, f_r, f_lo)
            # per lane h(lo) < 0 < h(hi) and f_lo = f(g(lo)); an untrusted point
            # with h < 0 takes the fallback step from lo
            newton, rising = t - h / dh, dh > 0.0
            step = np.where((trusted | positive) & rising, newton, np.nan)
            inside = (lo < step) & (step < hi)
            bounded = hi < np.inf
            trusted = ~inside | bounded | psd
            step = np.where(inside, step, np.where(bounded, 0.5 * (lo + hi), f_lo))
            # a converged lane takes one polishing Newton step, then stays put
            t = np.where(done, t, np.where(converged & rising, newton, step))
            polished |= converged
        else:
            raise NonConvergence(max_iter, float(residual[~done].max()))

    sol = FixedPointSolution(t, r, residual, iterations, Deformation(index, x), q, e, p)
    return sol.lanes(0) if np.ndim(k) + np.ndim(x0) + np.ndim(rho0) == 0 else sol


def mean_logdet_asymptotic(pair, config, solution: FixedPointSolution) -> float:
    """Asymptotic mean of Tr log[I + (rho/M) H J H^H] at the given fixed point.

    Tr log(I + sqrt(rho) t Tt) - M t r + Tr log(I + sqrt(rho) r R), in nats,
    with J = J_k(x) the solution's own deformation. By the determinant lemma
    the first term is sum log(1 + s d) + log(x + (1 - x) sum_j |U_kj|^2 q_j),
    with s = sqrt(rho) t. For J = I this is the mean mutual information of the
    optimal receiver.
    """
    m, sr, x = config.M, np.sqrt(config.rho), solution.deformation.x
    d, lam = pair.t_eigvals, pair.r_eigvals
    den = x + (1.0 - x) * (np.abs(pair.t_eigvecs[solution.deformation.index]) ** 2) @ solution.q
    arg_r = sr * solution.r * lam
    if den <= 0.0 or np.min(arg_r) <= -1.0:
        raise StabilityViolation("log argument left the positive domain")
    return float(np.log1p(sr * solution.t * d).sum() + np.log(den) - m * solution.t * solution.r
                 + np.log1p(arg_r).sum())


def mean_sinr_asymptotic(pair, config, tol: float = 1e-12, max_iter: int = 10000,
                         solution: Optional[FixedPointSolution] = None) -> MeanSinrResult:
    """Per-stream mean SINRs with their 1/N corrections.

    Everything is read from the weights q and a_r of the undeformed (J = I)
    solution: the deformation enters only through the linearized shift that
    produces delta_gamma. solution, if given, is that solve at config.rho (one
    lane of a grid solve). Raises StabilityViolation if 1 - m_t2 m_r2 <= 0.
    """
    m, rho = config.M, config.rho
    sol = solution or solve_fixed_point(pair, config, None, tol=tol, max_iter=max_iter)
    d, q = pair.t_eigvals, sol.q
    w = np.abs(pair.t_eigvecs) ** 2         # w[k, j] = |U_kj|^2
    eta = w @ q
    eta_prime = -np.sqrt(rho) * (w @ (d * q * q))
    m_t2 = (rho / m) * float(np.sum((d * q) ** 2))
    m_r2 = (rho / m) * float(np.sum(sol.a_r ** 2))
    stability = 1.0 - m_t2 * m_r2
    if stability <= 0.0:
        raise StabilityViolation(
            f"1 - m_t2*m_r2 = {stability:.3e} <= 0 at rho={rho}, M={m}, N={config.N}"
        )

    gamma_bar = 1.0 / eta - 1.0
    delta_gamma = (eta_prime**2 / eta**3) * (m_r2 / stability) / m
    return MeanSinrResult(gamma_bar=gamma_bar, delta_gamma=delta_gamma, eta=eta,
                          eta_prime=eta_prime, m_t2=m_t2, m_r2=m_r2, solution=sol)
