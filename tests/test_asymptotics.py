from decimal import Decimal, localcontext

import numpy as np
import pytest

from mimo_asympt import (
    CorrelationPair,
    Deformation,
    NonConvergence,
    SystemConfig,
    build_exponential_correlation,
    iid_closed_forms,
    mean_logdet_asymptotic,
    mean_sinr_asymptotic,
    mmse_mi_gaussian,
    mmse_mi_gaussian_grid,
    optimal_mi_gaussian,
    run_trials,
    sinr_covariance,
    sinr_covariance_exact,
    solve_fixed_point,
    TrialBatchSpec,
)
from oracles import logdet_joint_cumulant


def _iid(m, n, rho):
    return CorrelationPair.identity(n, m), SystemConfig(M=m, N=n, rho=rho)


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("rho", [1.0, 10.0, 100.0])
def test_iid_reduction_hits_closed_form(beta, rho):
    m = 8
    n = int(round(m / beta))
    pair, cfg = _iid(m, n, rho)
    sol = solve_fixed_point(pair, cfg)
    g = iid_closed_forms(cfg).g
    assert abs(sol.t * np.sqrt(rho) - g) <= 1e-10
    assert sol.residual <= 1e-12


def test_polishing_step_reaches_round_off():
    # i.i.d. M = N = 2 at 9 dB: after the stopping test one more Newton step
    # puts t sqrt(rho) at round-off from the closed form, worked in 40 digits
    rho = 10.0 ** 0.9
    pair, cfg = _iid(2, 2, rho)
    sol = solve_fixed_point(pair, cfg)
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(rho)
        g = (-1 + (1 + 4 * r).sqrt()) / 2   # beta = 1
        rel = abs(Decimal(sol.t) * Decimal(rho).sqrt() - g) / g
    assert rel <= 1e-15


def test_scalar_symmetric_case():
    # M = N = 1, rho = 2: t = r = (-1 + sqrt(1+4 rho)) / (2 sqrt(rho)) = 1/sqrt(2)
    pair, cfg = _iid(1, 1, 2.0)
    sol = solve_fixed_point(pair, cfg)
    assert sol.t == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert sol.r == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_zero_snr_limit():
    pair, cfg = _iid(2, 4, 1e-12)
    sol = solve_fixed_point(pair, cfg)
    sr = np.sqrt(1e-12)
    assert sol.t == pytest.approx(sr * 2.0, rel=1e-6)
    assert sol.r == pytest.approx(sr, rel=1e-6)
    assert mean_logdet_asymptotic(pair, cfg, sol) <= 1e-6


@pytest.mark.parametrize("x", [0.0, 0.5, 2.0, -0.02])
def test_deformed_logdet_matches_dense_slogdet(x):
    # the determinant lemma against the dense log-dets of I + s T^{1/2} J T^{1/2}
    # and I + sqrt(rho) r R, on a complex T
    rng = np.random.default_rng(11)
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pair = CorrelationPair(build_exponential_correlation(8, 0.5), y @ y.conj().T / 4)
    cfg = SystemConfig(M=4, N=8, rho=6.0)
    sr, k = np.sqrt(cfg.rho), 2
    sol = solve_fixed_point(pair, cfg, Deformation(k, x))
    j = np.eye(4)
    j[k, k] = x
    t_half = pair.t_sqrt
    sign_t, logdet_t = np.linalg.slogdet(np.eye(4) + sr * sol.t * t_half @ j @ t_half)
    sign_r, logdet_r = np.linalg.slogdet(np.eye(8) + sr * sol.r * np.asarray(pair.R))
    assert sign_t.real > 0 and sign_r.real > 0
    dense = logdet_t - 4 * sol.t * sol.r + logdet_r
    assert mean_logdet_asymptotic(pair, cfg, sol) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("kind,m,n,snr_db", [
    ("exponential", 4, 7, 55.0), ("exponential", 4, 7, 60.0), ("exponential", 4, 7, 80.0),
    ("exponential", 2, 4, 60.0), ("exponential", 3, 6, 60.0), ("exponential", 4, 8, 60.0),
    ("exponential", 5, 10, 60.0), ("complex-t", 4, 7, 60.0), ("complex-t", 4, 7, 80.0),
])
def test_deflated_lanes_converge_at_high_snr(kind, m, n, snr_db):
    # x = 0 deletes stream k, so Tt has T's spectrum without row and column k,
    # and both equations hold by dense traces; written as 1 - s a1, the
    # Sherman-Morrison denominator cancels as s a1 -> 1 and h stalls above 1e-12 t
    if kind == "exponential":
        pair = CorrelationPair(build_exponential_correlation(n, 0.5),
                               build_exponential_correlation(m, 0.3))
    else:
        rng = np.random.default_rng(1)
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        pair = CorrelationPair(x @ x.T / n, y @ y.conj().T / m)
    rho = 10.0 ** (snr_db / 10.0)
    sr, r_mat, t_mat = np.sqrt(rho), np.asarray(pair.R), np.asarray(pair.T)
    sol = solve_fixed_point(pair, SystemConfig(M=m, N=n, rho=rho),
                            Deformation(np.arange(m), np.zeros(m)))
    for k, t, r in zip(range(m), sol.t, sol.r):
        keep = np.arange(m) != k
        t_k = t_mat[np.ix_(keep, keep)]
        f_r = np.trace(np.linalg.solve(np.eye(n) + sr * r * r_mat, r_mat)).real
        g_t = np.trace(np.linalg.solve(np.eye(m - 1) + sr * t * t_k, t_k)).real
        assert t == pytest.approx(sr / m * f_r, rel=1e-12)
        assert r == pytest.approx(sr / m * g_t, rel=1e-12)


def test_fixed_point_defects_at_solution():
    pair = CorrelationPair(
        build_exponential_correlation(12, 0.6), build_exponential_correlation(6, 0.4)
    )
    cfg = SystemConfig(M=6, N=12, rho=7.0)
    sol = solve_fixed_point(pair, cfg, tol=1e-13)
    sr = np.sqrt(cfg.rho)
    lam = pair.r_eigvals
    nu = pair.t_eigvals
    d_t = sol.t - (sr / 6) * np.sum(lam / (1 + sr * sol.r * lam))
    d_r = sol.r - (sr / 6) * np.sum(nu / (1 + sr * sol.t * nu))
    assert max(abs(d_t), abs(d_r)) <= 1e-13


def test_high_snr_convergence():
    # rate of plain substitution approaches 1 at 60 dB; Newton must still land
    pair, cfg = _iid(2, 2, 1e6)
    sol = solve_fixed_point(pair, cfg)
    g = iid_closed_forms(cfg).g
    assert abs(sol.t * np.sqrt(cfg.rho) - g) <= 1e-8 * g


def test_nonconvergence_reported():
    pair = CorrelationPair(
        build_exponential_correlation(8, 0.99), build_exponential_correlation(4, 0.99)
    )
    cfg = SystemConfig(M=4, N=8, rho=1e4)
    with pytest.raises(NonConvergence) as exc:
        solve_fixed_point(pair, cfg, max_iter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


def test_monotone_in_rho():
    pair = CorrelationPair(
        build_exponential_correlation(8, 0.5), build_exponential_correlation(4, 0.3)
    )
    last = 0.0
    for rho in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]:
        cfg = SystemConfig(M=4, N=8, rho=rho)
        sol = solve_fixed_point(pair, cfg)
        cur = sol.t * np.sqrt(rho)
        assert cur > last
        last = cur


def test_mean_sinr_identity_correlations():
    pair, cfg = _iid(4, 8, 4.0)
    ms = mean_sinr_asymptotic(pair, cfg)
    g = iid_closed_forms(cfg).g
    np.testing.assert_allclose(ms.gamma_bar, g, rtol=1e-10)
    np.testing.assert_allclose(ms.eta, 1 / (1 + g), rtol=1e-10)
    # permutation symmetry of the correction
    assert np.ptp(ms.delta_gamma) <= 1e-12 * ms.delta_gamma[0]
    assert g == pytest.approx(4.70156, abs=1e-5)
    assert ms.eta[0] == pytest.approx(0.17539, abs=1e-5)


def test_mean_sinr_ranges_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m, n = 4, 8
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = x @ x.conj().T / n
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        t = y @ y.conj().T / m
        pair = CorrelationPair(r, t)
        cfg = SystemConfig(M=m, N=n, rho=float(10 ** rng.uniform(-1, 1.5)))
        ms = mean_sinr_asymptotic(pair, cfg)
        assert np.all(ms.eta > 0) and np.all(ms.eta <= 1.0)
        assert np.all(ms.gamma_bar >= 0)
        assert 1.0 - ms.m_t2 * ms.m_r2 > 0


def test_mean_logdet_matches_montecarlo_identity():
    # beta=0.5, M=8, rho=4, 1e5 trials: asymptotic mean within 2%
    pair, cfg = _iid(8, 16, 4.0)
    sol = solve_fixed_point(pair, cfg)
    pred = mean_logdet_asymptotic(pair, cfg, sol)
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=100_000, master_seed=31)
    summary = run_trials(spec)
    assert abs(summary.opt_mean - pred) / pred <= 0.02


def test_mean_logdet_matches_montecarlo_correlated():
    # exponential zeta_r=0.5, zeta_t=0.3, M=8, N=16, rho=10: within 2% at 1e5
    pair = CorrelationPair(
        build_exponential_correlation(16, 0.5), build_exponential_correlation(8, 0.3)
    )
    cfg = SystemConfig(M=8, N=16, rho=10.0)
    sol = solve_fixed_point(pair, cfg)
    pred = mean_logdet_asymptotic(pair, cfg, sol)
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=100_000, master_seed=32)
    summary = run_trials(spec)
    assert abs(summary.opt_mean - pred) / pred <= 0.02


def test_mean_sinr_correction_decay_correlated_mc():
    # beta = 0.5, exponential zeta_t = 0.5: the residual |E[gamma_k] -
    # gamma_bar_k - delta_gamma_k| falls faster than c/N over N in {8, 16, 32}
    # (1e6 trials per size; per-stream errors averaged).
    scaled = []
    for n in (8, 16, 32):
        m = n // 2
        pair = CorrelationPair(np.eye(n), build_exponential_correlation(m, 0.5))
        cfg = SystemConfig(M=m, N=n, rho=4.0)
        ms = mean_sinr_asymptotic(pair, cfg)
        spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=1_000_000,
                              master_seed=33)
        summary = run_trials(spec)
        err = float(np.mean(np.abs(summary.sinr_mean - ms.gamma_bar - ms.delta_gamma)))
        scaled.append(n * err)
    assert scaled[0] > scaled[1] > scaled[2]


def test_deformed_solution_linearization_consistency():
    # Mean SINR via the deformed fixed point (exact in the deformation) agrees
    # with gamma_bar + delta_gamma up to O(1/N^2): the gap must shrink ~4x
    # when N doubles.
    gaps = []
    for m, n in [(4, 8), (8, 16), (16, 32)]:
        pair = CorrelationPair(np.eye(n), build_exponential_correlation(m, 0.5))
        cfg = SystemConfig(M=m, N=n, rho=4.0)
        ms = mean_sinr_asymptotic(pair, cfg)
        k = 0
        sol_k = solve_fixed_point(pair, cfg, Deformation(k, 0.0))
        d, u = np.linalg.eigh(pair.T)
        w = np.abs(u[k]) ** 2
        eta_k = float(w @ (1.0 / (1.0 + np.sqrt(cfg.rho) * sol_k.t * d)))
        exact = 1.0 / eta_k - 1.0
        gaps.append(abs(ms.gamma_bar[k] + ms.delta_gamma[k] - exact))
    assert gaps[0] / gaps[1] > 2.5
    assert gaps[1] / gaps[2] > 2.5


@pytest.mark.parametrize("m, n", [(3, 6), (5, 10)])
@pytest.mark.parametrize("layer", [
    solve_fixed_point,
    mean_sinr_asymptotic,
    optimal_mi_gaussian,
    mmse_mi_gaussian,
    lambda pair, cfg: mmse_mi_gaussian_grid(pair, cfg, [cfg.rho]),
    sinr_covariance_exact,
    sinr_covariance,
    lambda pair, cfg: logdet_joint_cumulant(pair, cfg, 0, 1, 0.0, 0.0),
], ids=["solve_fixed_point", "mean_sinr_asymptotic", "optimal_mi_gaussian", "mmse_mi_gaussian",
        "mmse_mi_gaussian_grid", "sinr_covariance_exact", "sinr_covariance",
        "logdet_joint_cumulant"])
def test_pair_that_does_not_fit_config_is_rejected(layer, m, n):
    # an 8x8 R and a 4x4 T against a smaller and a larger config: neither a
    # silent answer nor an index error
    pair = CorrelationPair(build_exponential_correlation(8, 0.5),
                           build_exponential_correlation(4, 0.3))
    with pytest.raises(ValueError, match=r"correlation pair is \(8, 4\), config wants"):
        layer(pair, SystemConfig(M=m, N=n, rho=4.0))
