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
differentiation of one deflated solve per stream gives the derivative. The
oracle, sinr_covariance, re-solves the fixed point at every node of a central
four-point stencil with one Richardson level (step h and h/2); it converges
onto the exact matrix at order h^4.

Evaluated this way at finite M, the matrix carries genuine O(1/M) corrections
beyond the i.i.d. closed forms (which are the M -> infinity coefficients);
Monte Carlo puts the finite-M values within about one percent of the true
SINR covariance at M = 8, where the closed forms sit ~10% low.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

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


class _Node(NamedTuple):
    t: float
    r: float
    phi: np.ndarray  # J_k T (I + t sqrt(rho) J_k T)^{-1}


def _make_node(pair, config, k: int, x: float, tol: float, max_iter: int) -> _Node:
    sol = solve_fixed_point(pair, config, Deformation(k, x), tol=tol, max_iter=max_iter)
    sr = np.sqrt(config.rho)
    jt = np.array(pair.T)
    jt[k, :] *= x
    b = np.eye(config.M) + sr * sol.t * jt
    phi = (np.eye(config.M) - np.linalg.inv(b)) / (sr * sol.t)
    return _Node(t=sol.t, r=sol.r, phi=phi)


def _kernel(node_k: _Node, node_l: _Node, pair, config) -> float:
    m, rho = config.M, config.rho
    sr = np.sqrt(rho)
    m_t = (rho / m) * np.trace(node_k.phi @ node_l.phi).real
    lam = pair.r_eigvals
    m_r = (rho / m) * float(
        np.sum(lam**2 / ((1.0 + sr * node_k.r * lam) * (1.0 + sr * node_l.r * lam)))
    )
    arg = m_t * m_r
    if arg >= 1.0:
        raise StabilityViolation(f"1 - M_t*M_r = {1.0 - arg:.3e} <= 0")
    return float(-np.log1p(-arg))


def logdet_joint_cumulant(pair, config, k: int, l: int, x_k: float, x_l: float,
                          tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Joint second cumulant of the log-dets deformed at streams k and l.

    Symmetric under swapping (k, x_k) with (l, x_l). At k = l with
    x_k = x_l = 1 (no deformation) this is the asymptotic variance of the
    optimal-receiver mutual information.
    """
    node_k = _make_node(pair, config, k, x_k, tol, max_iter)
    node_l = _make_node(pair, config, l, x_l, tol, max_iter)
    return _kernel(node_k, node_l, pair, config)


def _mixed_difference(nodes, pair, config, i: int, j: int, h: float) -> float:
    f = {}
    for xi in (h, -h):
        for xj in (h, -h):
            f[(xi, xj)] = _kernel(nodes[(i, xi)], nodes[(j, xj)], pair, config)
    return (f[(h, h)] - f[(h, -h)] - f[(-h, h)] + f[(-h, -h)]) / (4.0 * h * h)


def sinr_covariance(pair, config, step: float = 1e-3, tol: float = 1e-12,
                    max_iter: int = 10000, exploit_symmetry: bool = True) -> SinrCovariance:
    """Full M x M SINR covariance via mixed central differences around x = 0.

    Each entry uses the four corners (+-h, +-h), Richardson-combined with the
    half-step stencil. For i = j the two slots carry independent parameters on
    the same diagonal entry. Under exact identity correlations only the (0,0)
    and (0,1) entries are computed and broadcast (permutation symmetry);
    pass exploit_symmetry=False to force the full loop.

    Raises StepTooLarge when the stencil leaves the saddle-point stability
    region; fixed-point NonConvergence propagates as itself.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    m = config.M
    steps = (step, step / 2.0)

    iid_fast = exploit_symmetry and pair.is_identity

    def entry(i: int, j: int, nodes) -> float:
        coarse, fine = (_mixed_difference(nodes, pair, config, i, j, h) for h in steps)
        return (4.0 * fine - coarse) / 3.0

    indices = [0, 1] if (iid_fast and m >= 2) else ([0] if iid_fast else list(range(m)))
    xs = [s * sgn for s in steps for sgn in (+1.0, -1.0)]
    nodes = {}
    try:
        for k in indices:
            for x in xs:
                nodes[(k, x)] = _make_node(pair, config, k, x, tol, max_iter)
        sigma = np.empty((m, m))
        if iid_fast:
            diag = entry(0, 0, nodes)
            off = entry(0, 1, nodes) if m >= 2 else 0.0
            sigma.fill(off)
            np.fill_diagonal(sigma, diag)
        else:
            for i in range(m):
                for j in range(i, m):
                    sigma[i, j] = sigma[j, i] = entry(i, j, nodes)
    except StabilityViolation as exc:
        raise StepTooLarge(
            f"stencil with step {step} left the stable region: {exc}"
        ) from exc
    return SinrCovariance(sigma=sigma, step=step)


def sinr_covariance_exact(pair, config, tol: float = 1e-12,
                          max_iter: int = 10000) -> SinrCovariance:
    """Full M x M SINR covariance by implicit differentiation at x = 0.

    Per stream k, at the deflated fixed point of t = f(r), r = g(t, x):
    dr_k = g_x / (1 - g_t f'(r_k)), dt_k = f'(r_k) dr_k, with E_k = e_k e_k^T,
    g_x = (sqrt(rho)/M) Tr[B^{-1} E_k T B^{-1}], g_t = -(rho/M) Tr phi_k^2 and
    dphi_k = B^{-1} E_k T B^{-1} - sqrt(rho) dt_k phi_k^2. Then, with p = M_t M_r,
    Sigma_kl = d_k p d_l p / (1-p)^2 + d_k d_l p / (1-p); StabilityViolation if p >= 1.
    """
    m, rho = config.M, config.rho
    sr = np.sqrt(rho)
    lam = pair.r_eigvals
    rows = []
    for k in range(m):
        node = _make_node(pair, config, k, 0.0, tol, max_iter)
        phi2 = node.phi @ node.phi
        b_inv = np.eye(m) - sr * node.t * node.phi
        u, v = b_inv[:, k], pair.T[k] @ b_inv   # B^{-1} E_k T B^{-1} = u v^T
        a = lam / (1.0 + sr * node.r * lam)
        f_prime = -(rho / m) * np.sum(a * a)
        g_t = -(rho / m) * np.trace(phi2).real
        dr = (sr / m) * (v @ u).real / (1.0 - g_t * f_prime)
        rows.append((node.phi, np.outer(u, v) - sr * f_prime * dr * phi2, a, -sr * dr * a * a))
    phi, dphi, a_r, da_r = (np.array(z) for z in zip(*rows))

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
