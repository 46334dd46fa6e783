"""SINR covariance from the joint log-det cumulant.

The second joint cumulant of two deformed log-dets is

    F(x_k, x_l) = -log[1 - M_t(k, l) M_r(k, l)]

with

    M_t = (rho/M) Tr[ J_k T (I + t_k J_k T sqrt(rho))^{-1}
                      J_l T (I + t_l J_l T sqrt(rho))^{-1} ]
    M_r = (rho/M) Tr[ R (I + r_k sqrt(rho) R)^{-1} R (I + r_l sqrt(rho) R)^{-1} ]

where (t_k, r_k) solve the fixed point for the deformation J_k(x_k), and
likewise for l. The SINR covariance is the mixed second derivative of F at
x_k = x_l = 0 (the deflated base point). The x-dependence flows both through
the explicit J factors and implicitly through (t, r). Production uses
sinr_covariance_exact: each x moves only its own stream's node, so implicit
differentiation at the M deflated fixed points, one stacked solve, gives the
derivative. The oracle, sinr_covariance, re-solves the fixed point at every
node of a central four-point stencil with one Richardson level (step h and
h/2), again in one stacked solve; it converges onto the exact matrix at order h^4.

Evaluated this way at finite M, the matrix carries genuine O(1/M) corrections
beyond the i.i.d. closed forms (which are the M -> infinity coefficients);
Monte Carlo puts the finite-M values within about one percent of the true
SINR covariance at M = 8, where the closed forms sit ~10% low.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import (
    Deformation,
    StabilityViolation,
    solve_fixed_point,
)

__all__ = [
    "SinrCovariance",
    "IidClosedForms",
    "StepTooLarge",
    "logdet_joint_cumulant",
    "sinr_covariance",
    "sinr_covariance_exact",
    "iid_closed_forms",
]


class StepTooLarge(RuntimeError):
    """A finite-difference stencil node left the stable/convergent region."""


@dataclass(frozen=True)
class SinrCovariance:
    """M x M symmetric SINR covariance, with the step and scheme that built it."""

    sigma: np.ndarray
    step: float
    method: str = "central-4pt"


class IidClosedForms(NamedTuple):
    """Asymptotic i.i.d. coefficients: mean g, M*variance v_d, M^2*covariance v_od."""

    g: float
    v_d: float
    v_od: float


class _Lanes(NamedTuple):
    """Deformed lanes J_k(x) at their fixed points, in T's eigenbasis (s = sqrt(rho) t)."""

    index: np.ndarray
    q: np.ndarray     # (K, M): 1 / (1 + s d)
    e: np.ndarray     # Sherman-Morrison weight c / (1 + s c a1), c = x - 1
    a_r: np.ndarray   # (K, N): lam / (1 + sqrt(rho) r lam), so M_r(a, b) = (rho/M) a_r.a_r


def _solve_lanes(pair, config, index, x, tol: float, max_iter: int) -> _Lanes:
    sol = solve_fixed_point(pair, config, Deformation(index, x), tol=tol, max_iter=max_iter)
    sr, d, lam = np.sqrt(config.rho), pair.t_eigvals, pair.r_eigvals
    q = 1.0 / (1.0 + sr * sol.t[:, None] * d)
    a1 = np.sum(np.abs(pair.t_eigvecs[index]) ** 2 * (d * q), axis=1)
    return _Lanes(index, q, (x - 1.0) / (1.0 + sr * sol.t * (x - 1.0) * a1),
                  lam / (1.0 + sr * sol.r[:, None] * lam))


def _kernel(lanes: _Lanes, a, b, pair, config) -> np.ndarray:
    """F = -log(1 - M_t M_r) between every lane in a and every lane in b (index arrays).

    phi = J_k T (I + s J_k T)^{-1} is T Q plus a rank-one term, Q = (I + s T)^{-1},
    so with w = |U_k|^2 and z = U_k (row k of the eigenvectors)
    Tr[phi_a phi_b] = dq_a.dq_b + e_b q_a.(w d^2 q^2)_b + e_a (w d^2 q^2)_a.q_b
                      + e_a e_b |(z d q)_a.(conj(z) q)_b|^2,
    and no M x M matrix is formed.
    """
    d, vecs = pair.t_eigvals, pair.t_eigvecs
    (q_a, e_a, r_a, z_a), (q_b, e_b, r_b, z_b) = (
        (lanes.q[i], lanes.e[i], lanes.a_r[i], vecs[lanes.index[i]]) for i in (a, b))
    tr = ((d * q_a) @ (d * q_b).T
          + e_b * (q_a @ (np.abs(z_b) ** 2 * (d * q_b) ** 2).T)
          + e_a[:, None] * ((np.abs(z_a) ** 2 * (d * q_a) ** 2) @ q_b.T)
          + np.outer(e_a, e_b) * np.abs((z_a * d * q_a) @ (z_b.conj() * q_b).T) ** 2)
    p = (config.rho / config.M) ** 2 * tr * (r_a @ r_b.T)
    if p.max() >= 1.0:
        raise StabilityViolation(f"1 - M_t*M_r = {1.0 - p.max():.3e} <= 0")
    return -np.log1p(-p)


def logdet_joint_cumulant(pair, config, k: int, l: int, x_k: float, x_l: float,
                          tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Joint second cumulant of the log-dets deformed at streams k and l.

    Symmetric under swapping (k, x_k) with (l, x_l). At k = l with
    x_k = x_l = 1 (no deformation) this is the asymptotic variance of the
    optimal-receiver mutual information.
    """
    lanes = _solve_lanes(pair, config, np.array([k, l]), np.array([x_k, x_l], dtype=float),
                         tol, max_iter)
    return float(_kernel(lanes, [0], [1], pair, config)[0, 0])


def sinr_covariance(pair, config, step: float = 1e-3, tol: float = 1e-12,
                    max_iter: int = 10000) -> SinrCovariance:
    """Full M x M SINR covariance via mixed central differences around x = 0.

    Each entry uses the four corners (+-h, +-h), Richardson-combined with the
    half-step stencil. For i = j the two slots carry independent parameters on
    the same diagonal entry. All 4M nodes (every stream at +-h and +-h/2) come
    from one stacked solve.

    Raises StepTooLarge when the stencil leaves the saddle-point stability
    region; fixed-point NonConvergence propagates as itself.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    m = config.M
    steps = (step, step / 2.0)
    xs = np.repeat([x for h in steps for x in (h, -h)], m)   # lanes: +h, -h, +h/2, -h/2
    try:
        lanes = _solve_lanes(pair, config, np.tile(np.arange(m), 4), xs, tol, max_iter)
        fs = [_kernel(lanes, nodes, nodes, pair, config)
              for nodes in np.arange(4 * m).reshape(2, 2 * m)]
    except StabilityViolation as exc:
        raise StepTooLarge(f"stencil with step {step} left the stable region: {exc}") from exc
    coarse, fine = ((f[:m, :m] - f[:m, m:] - f[m:, :m] + f[m:, m:]) / (4.0 * h * h)
                    for f, h in zip(fs, steps))
    sigma = (4.0 * fine - coarse) / 3.0
    return SinrCovariance(sigma=0.5 * (sigma + sigma.T), step=step)


def sinr_covariance_exact(pair, config, tol: float = 1e-12,
                          max_iter: int = 10000) -> SinrCovariance:
    """Full M x M SINR covariance by implicit differentiation at x = 0.

    Per stream k, at the deflated fixed point of t = f(r), r = g(t, x):
    dr_k = g_x / (1 - g_t f'(r_k)), dt_k = f'(r_k) dr_k, with E_k = e_k e_k^T,
    g_x = (sqrt(rho)/M) Tr[B^{-1} E_k T B^{-1}], g_t = -(rho/M) Tr phi_k^2 and
    dphi_k = B^{-1} E_k T B^{-1} - sqrt(rho) dt_k phi_k^2. Then, with p = M_t M_r,
    Sigma_kl = d_k p d_l p / (1-p)^2 + d_k d_l p / (1-p); StabilityViolation if p >= 1.
    All M deflated streams are one stacked solve, and every step runs on the stack.
    """
    m, rho, sr = config.M, config.rho, np.sqrt(config.rho)
    lanes = _solve_lanes(pair, config, np.arange(m), np.zeros(m), tol, max_iter)
    # Sherman-Morrison in T = U diag(d) U^H, Q = (I + s T)^{-1}: u = B^{-1} e_k = -e Q e_k,
    # v = e_k^T T B^{-1} = -e e_k^T T Q and phi = T Q + e Q e_k e_k^T T Q = T Q + u v^T / e
    d, vecs, a_r = pair.t_eigvals, pair.t_eigvecs, lanes.a_r
    vecs = vecs if vecs.imag.any() else vecs.real   # a real T: real arithmetic, 4x fewer flops
    dq, e = d * lanes.q, lanes.e[:, None]
    u = -e * ((lanes.q * vecs.conj()) @ vecs.T)
    v = -e * ((vecs * dq) @ vecs.conj().T)
    phi = (vecs * dq[:, None, :]) @ vecs.conj().T + (u / e)[:, :, None] * v[:, None, :]
    phi2 = phi @ phi
    f_prime = -(rho / m) * np.sum(a_r * a_r, axis=1)
    g_t = -(rho / m) * np.trace(phi2, axis1=1, axis2=2).real
    dr = (sr / m) * np.sum(v * u, axis=1).real / (1.0 - g_t * f_prime)
    # B^{-1} E_k T B^{-1} = u v^T
    dphi = u[:, :, None] * v[:, None, :] - (sr * f_prime * dr)[:, None, None] * phi2
    da_r = -sr * dr[:, None] * a_r * a_r

    # Tr[X_k Y_l] = <vec X_k, vec Y_l^T>, so each kernel factor and its slot
    # derivatives (d: first slot) are (rho/M) times one (M, K) @ (K, M) product
    vec, vec_t = phi.reshape(m, -1), phi.transpose(0, 2, 1).reshape(m, -1)
    dvec, dvec_t = dphi.reshape(m, -1), dphi.transpose(0, 2, 1).reshape(m, -1)
    m_t, dm_t, ddm_t, m_r, dm_r, ddm_r = (
        (rho / m) * (x @ y.T).real for x, y in ((vec, vec_t), (dvec, vec_t), (dvec, dvec_t),
                                                (a_r, a_r), (da_r, a_r), (da_r, da_r)))
    p = m_t * m_r
    if p.max() >= 1.0:
        raise StabilityViolation(f"1 - M_t*M_r = {1.0 - p.max():.3e} <= 0")
    dp = dm_t * m_r + m_t * dm_r
    ddp = ddm_t * m_r + dm_t * dm_r.T + dm_t.T * dm_r + m_t * ddm_r
    sigma = dp * dp.T / (1.0 - p) ** 2 + ddp / (1.0 - p)
    return SinrCovariance(sigma=0.5 * (sigma + sigma.T), step=0.0, method="implicit")


def iid_closed_forms(config) -> IidClosedForms:
    """Asymptotic i.i.d. (identity-correlation) coefficients.

    g is the limiting mean SINR; the covariance matrix tends to
    v_d/M on the diagonal and v_od/M^2 off it as M grows at fixed beta, rho.
    """
    beta, rho = config.beta, config.rho
    a = rho * (1.0 - beta) - beta
    g = (a + np.sqrt(a * a + 4.0 * rho * beta)) / (2.0 * beta)
    s = 1.0 - beta * g * g / (1.0 + g) ** 2
    v_d = beta * g * g / s
    v_od = (beta**2 * g**3 * (g * s - 2.0)) / ((1.0 + g) ** 2 * s**3) \
        + (beta**3 * g**4) / ((1.0 + g) ** 4 * s**4)
    return IidClosedForms(g=float(g), v_d=float(v_d), v_od=float(v_od))
