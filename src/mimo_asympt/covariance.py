"""SINR covariance from the joint log-det cumulant.

The second joint cumulant of two deformed log-dets is F = -log[1 - M_t M_r],

    M_t(k, l) = (rho/M) Tr[phi_k phi_l],   phi_k = J_k T (I + t_k J_k T sqrt(rho))^{-1}
    M_r(k, l) = (rho/M) Tr[ R (I + r_k sqrt(rho) R)^{-1} R (I + r_l sqrt(rho) R)^{-1} ]

where (t_k, r_k) solve the fixed point for the deformation J_k(x_k), and
likewise for l. The SINR covariance is the mixed second derivative of F at
x_k = x_l = 0 (the deflated base point). In T's eigenbasis phi_k is a diagonal
plus rank one, and phi_k^2 and its derivative a diagonal plus rank two, so one
routine, _trace, gives each such trace for every stream pair from (M, M)
products. Production uses sinr_covariance_exact, implicit differentiation at
the M deflated fixed points, each point's lanes of the one stacked solve that
mmse_mi_gaussian_grid makes for an SNR grid. The oracle, sinr_covariance,
differences F over a central four-point stencil with one Richardson level
(steps h and h/2), again one stacked solve, and converges onto it at order h^4.

At finite M the matrix carries genuine O(1/M) corrections beyond the i.i.d. closed forms
(the M -> infinity coefficients); Monte Carlo puts the finite-M values within about one
percent of the true SINR covariance at M = 8, where the closed forms sit ~10% low.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import Deformation, FixedPointSolution, StabilityViolation, solve_fixed_point

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
    """M x M symmetric SINR covariance, with the scheme that built it."""

    sigma: np.ndarray
    method: str = "central-4pt"


class IidClosedForms(NamedTuple):
    """Asymptotic i.i.d. coefficients: mean g, M*variance v_d, M^2*covariance v_od."""

    g: float
    v_d: float
    v_od: float


def _factors(sol: FixedPointSolution, pair, lanes=slice(None)):
    """Each lane's phi = diag(dq) + e x y^T in T's eigenbasis, x = q conj(U_k), y = dq U_k.

    Returns dq, phi's weights C_phi on X = [x, dq x] and Y = [y, dq y], and the
    products every trace needs: xy[u, v] = X_u Y_v entrywise, P[v, i, w, j] = Y_v[i] . X_w[j].
    """
    q, z = sol.q[lanes], pair.t_eigvecs[sol.deformation.index[lanes]]
    z = z if z.imag.any() else z.real   # real rows: real arithmetic, 4x fewer flops
    dq = pair.t_eigvals * q
    x, y = q * z.conj(), dq * z
    xs, ys = np.stack((x, dq * x)), np.stack((y, dq * y))
    c_phi = sol.e[lanes, None, None] * np.array([[1.0, 0.0], [0.0, 0.0]])
    return dq, c_phi, (xs[:, None] * ys, np.tensordot(ys, xs, axes=(2, 2)))


def _trace(a, c_a, b, c_b, factors) -> np.ndarray:
    """Tr[A_i B_j] for every pair of lanes, with A_i = diag(a_i) + X_i C_a[i] Y_i^T and B alike.

    With L the low-rank parts, Tr[A B] = a.b + a.diag L_B + diag L_A . b + Tr[L_A L_B],
    and Tr[L_A L_B] = sum C_a[i,u,v] P[v,i,w,j] C_b[j,w,z] P[z,j,u,i].
    """
    xy, p = factors
    diag_a, diag_b = (np.einsum("kuv,uvkm->km", c, xy) for c in (c_a, c_b))
    cp_a, cp_b = (np.einsum("iuv,viwj->uiwj", c, p) for c in (c_a, c_b))
    low = (cp_a * cp_b.transpose(2, 3, 0, 1)).sum(axis=(0, 2))
    return (a @ b.T + a @ diag_b.T + diag_a @ b.T + low).real


def _kernel(sol: FixedPointSolution, a, b, pair, config) -> np.ndarray:
    """F = -log(1 - M_t M_r) between every lane in a and every lane in b of a stacked solve."""
    lanes, at = np.unique(np.concatenate((a, b)), return_inverse=True)
    dq, c_phi, factors = _factors(sol, pair, lanes)
    p = _trace(dq, c_phi, dq, c_phi, factors) * (sol.a_r[lanes] @ sol.a_r[lanes].T)
    p = (config.rho / config.M) ** 2 * p[np.ix_(at[:len(a)], at[len(a):])]
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
    sol = solve_fixed_point(pair, config, Deformation(np.array([k, l]), np.array([x_k, x_l])),
                            tol=tol, max_iter=max_iter)
    return float(_kernel(sol, [0], [1], pair, config)[0, 0])


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
        sol = solve_fixed_point(pair, config, Deformation(np.tile(np.arange(m), 4), xs),
                                tol=tol, max_iter=max_iter)
        fs = [_kernel(sol, nodes, nodes, pair, config)
              for nodes in np.arange(4 * m).reshape(2, 2 * m)]
    except StabilityViolation as exc:
        raise StepTooLarge(f"stencil with step {step} left the stable region: {exc}") from exc
    coarse, fine = ((f[:m, :m] - f[:m, m:] - f[m:, :m] + f[m:, m:]) / (4.0 * h * h)
                    for f, h in zip(fs, steps))
    sigma = (4.0 * fine - coarse) / 3.0
    return SinrCovariance(sigma=0.5 * (sigma + sigma.T))


def sinr_covariance_exact(pair, config, tol: float = 1e-12, max_iter: int = 10000,
                          solution: Optional[FixedPointSolution] = None) -> SinrCovariance:
    """Full M x M SINR covariance by implicit differentiation at x = 0.

    solution, if given, is the M deflated lanes (x = 0, stream order) at
    config.rho, solved here otherwise. Per stream k, at the deflated fixed
    point of t = f(r), r = g(t, x): dr_k = g_x / (1 - g_t f'(r_k)),
    dt_k = f'(r_k) dr_k, with E_k = e_k e_k^T,
    g_x = (sqrt(rho)/M) Tr[B^{-1} E_k T B^{-1}], g_t = -(rho/M) Tr phi_k^2 and
    dphi_k = B^{-1} E_k T B^{-1} - sqrt(rho) dt_k phi_k^2. Then, with p = M_t M_r,
    Sigma_kl = d_k p d_l p / (1-p)^2 + d_k d_l p / (1-p); StabilityViolation if p >= 1.
    """
    m, rho, sr = config.M, config.rho, np.sqrt(config.rho)
    sol = solution or solve_fixed_point(pair, config, Deformation(np.arange(m), np.zeros(m)),
                                        tol=tol, max_iter=max_iter)
    dq, c_phi, factors = _factors(sol, pair)
    a_r, e = sol.a_r, sol.e[:, None, None]
    s = np.diagonal(factors[1][0, :, 0]).real   # y^T x
    # phi^2 = diag(dq^2) + e (dq x) y^T + e x (dq y)^T + e^2 s x y^T
    c_phi2 = e * (s[:, None, None] * c_phi + np.array([[0.0, 1.0], [1.0, 0.0]]))
    m_t = (rho / m) * _trace(dq, c_phi, dq, c_phi, factors)
    f_prime = -(rho / m) * np.sum(a_r * a_r, axis=1)
    # B^{-1} E_k T B^{-1} = e^2 x y^T, so g_x = (sqrt(rho)/M) e^2 s; and g_t = -diag(M_t)
    dr = (sr / m) * sol.e ** 2 * s / (1.0 + np.diagonal(m_t) * f_prime)
    c = sr * f_prime * dr
    dd, c_d = -c[:, None] * dq * dq, e * c_phi - c[:, None, None] * c_phi2
    dm_t, ddm_t = ((rho / m) * _trace(dd, c_d, b, c_b, factors)
                   for b, c_b in ((dq, c_phi), (dd, c_d)))
    da_r = -sr * dr[:, None] * a_r * a_r
    m_r, dm_r, ddm_r = ((rho / m) * (x @ y.T) for x, y in ((a_r, a_r), (da_r, a_r), (da_r, da_r)))
    p = m_t * m_r
    if p.max() >= 1.0:
        raise StabilityViolation(f"1 - M_t*M_r = {1.0 - p.max():.3e} <= 0")
    dp = dm_t * m_r + m_t * dm_r
    ddp = ddm_t * m_r + dm_t * dm_r.T + dm_t.T * dm_r + m_t * ddm_r
    sigma = dp * dp.T / (1.0 - p) ** 2 + ddp / (1.0 - p)
    return SinrCovariance(sigma=0.5 * (sigma + sigma.T), method="implicit")


def iid_closed_forms(config) -> IidClosedForms:
    """Asymptotic i.i.d. (identity-correlation) coefficients.

    g is the limiting mean SINR; the covariance matrix tends to
    v_d/M on the diagonal and v_od/M^2 off it as M grows at fixed beta, rho.
    """
    beta, rho = config.beta, config.rho
    a = rho * (1.0 - beta) - beta
    root = np.sqrt(a * a + 4.0 * rho * beta)
    # the positive root of beta g^2 - a g - rho = 0, in the form that does not cancel
    g = (a + root) / (2.0 * beta) if a >= 0 else 2.0 * rho / (root - a)
    s = 1.0 - beta * g * g / (1.0 + g) ** 2
    v_d = beta * g * g / s
    v_od = (beta**2 * g**3 * (g * s - 2.0)) / ((1.0 + g) ** 2 * s**3) \
        + (beta**3 * g**4) / ((1.0 + g) ** 4 * s**4)
    return IidClosedForms(g=float(g), v_d=float(v_d), v_od=float(v_od))
