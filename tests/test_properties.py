"""Property tests over drawn Kronecker pairs.

Each example draws a pair kind, sizes, an SNR of at most 10 dB and a seed
for the matrices: exponential correlations, a random real PSD pair, a
complex Hermitian T, a rank-deficient T and M = 1. The exact covariance is
checked against the finite-difference stencil, the deformed cumulant kernel
against traces of dense resolvents, and every lane of a stacked Newton solve
against a dense evaluation of both equations that shares no code with it, as
is the point where a negative deformation makes the solver refuse. The mean
SINRs and the optimal receiver's model are checked against the dense Kronecker
statistics of perfbench/checks.py, which imports nothing from the package, a
grid of Gaussian models against its one-point calls, the exact receiver
algebra against the ordering of its two mutual informations
on drawn channel stacks, and a shared-draw Monte Carlo grid against the order
of its sorted samples across SNRs.
"""

import pathlib
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mimo_asympt import (
    CorrelationPair,
    Deformation,
    NonConvergence,
    StabilityViolation,
    SystemConfig,
    TrialBatchSpec,
    build_exponential_correlation,
    gram,
    mmse_mi_gaussian,
    mmse_mi_gaussian_grid,
    optimal_mi_gaussian,
    receiver_values,
    run_trials_grid,
    sinr_covariance,
    sinr_covariance_exact,
    solve_fixed_point,
)
from oracles import logdet_joint_cumulant

# the benchmark's output checks, executed from source so nothing is written next to them
_CHECKS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
checks = types.ModuleType("checks")
exec(compile(_CHECKS_PY.read_text(), str(_CHECKS_PY), "exec"), checks.__dict__)

KINDS = ["exponential", "real-psd", "complex-t", "rank-deficient-t", "single-stream"]
TOL = 1e-12
H = 1e-3   # the stencil's default step
POLE_XS = (-0.05, -0.2, -0.5, -1.0, -2.0, -5.0, -20.0, -100.0, -1e4)


def _psd(rng, size, rank=None, complex_=False):
    v = rng.standard_normal((size, rank or size))
    if complex_:
        v = v + 1j * rng.standard_normal(v.shape)
    a = v @ v.conj().T
    return a * (size / np.trace(a).real)


@st.composite
def systems(draw, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    m = 1 if kind == "single-stream" else draw(st.integers(2, 6))
    n = draw(st.integers(m, 2 * m + 2))
    snr_db = draw(st.floats(-5.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "exponential":
        pair = CorrelationPair(build_exponential_correlation(n, rng.uniform(0.0, 0.9)),
                               build_exponential_correlation(m, rng.uniform(0.0, 0.9)))
    else:
        rank = m - 1 if kind == "rank-deficient-t" else None
        pair = CorrelationPair(_psd(rng, n),
                               _psd(rng, m, rank=rank, complex_=kind == "complex-t"))
    return pair, SystemConfig(M=m, N=n, rho=10.0 ** (snr_db / 10.0))


@given(systems())
def test_exact_covariance_matches_stencil(system):
    pair, cfg = system
    exact = sinr_covariance_exact(pair, cfg).sigma
    scale = np.max(np.abs(exact))
    # The stencil's error is truncation, O(h^4), plus round-off, O(eps / h^2):
    # a steep kernel needs the small step (2e-6 at the default 1e-3 on one
    # M = 1 pair), a tiny covariance the large one (round-off 1e-6 at 2.5e-4
    # on a rank-one T). The better of the two steps must match.
    gaps = [np.max(np.abs(sinr_covariance(pair, cfg, step=h).sigma - exact))
            for h in (1e-3, 2.5e-4)]
    assert min(gaps) <= 1e-6 * scale
    assert np.array_equal(exact, exact.T)


@given(systems(), st.data())
def test_joint_cumulant_matches_dense_traces(system, data):
    # the stencil and the exact covariance share the low-rank trace, so the
    # deformed kernel is checked against traces of dense resolvents
    pair, cfg = system
    m, n, sr = cfg.M, cfg.N, np.sqrt(cfg.rho)
    k, l = (data.draw(st.integers(0, m - 1)) for _ in range(2))
    x_k, x_l = (data.draw(st.floats(0.0, 1.5)) for _ in range(2))
    r_mat, t_mat = np.asarray(pair.R), np.asarray(pair.T)
    phi, psi = [], []
    for kk, xx in ((k, x_k), (l, x_l)):
        sol = solve_fixed_point(pair, cfg, Deformation(kk, xx), tol=TOL)
        jt = t_mat.copy()
        jt[kk, :] *= xx
        # J T (I + s J T)^{-1} = (I + s J T)^{-1} J T, likewise on the R side
        phi.append(np.linalg.solve(np.eye(m) + sr * sol.t * jt, jt))
        psi.append(np.linalg.solve(np.eye(n) + sr * sol.r * r_mat, r_mat))
    m_t, m_r = ((cfg.rho / m) * np.trace(a @ b).real for a, b in (phi, psi))
    got = logdet_joint_cumulant(pair, cfg, k, l, x_k, x_l)
    assert got == pytest.approx(-np.log1p(-m_t * m_r), rel=1e-12, abs=1e-14)


@given(systems())
def test_newton_fixed_point_satisfies_both_equations(system):
    pair, cfg = system
    m, n, sr = cfg.M, cfg.N, np.sqrt(cfg.rho)
    r_mat, t_mat = np.asarray(pair.R), np.asarray(pair.T)
    # the undeformed solve, then every lane of one stacked solve at x in {0, +-h}
    x = np.repeat([0.0, H, -H], m)
    stack = solve_fixed_point(pair, cfg, Deformation(np.tile(np.arange(m), 3), x), tol=TOL)
    sol = solve_fixed_point(pair, cfg, None, tol=TOL)
    lanes = [(sol.t, sol.r, 0, 1.0)] + list(zip(stack.t, stack.r, np.tile(np.arange(m), 3), x))
    for t, r, k, xk in lanes:
        jt = t_mat.copy()
        jt[k, :] *= xk
        # t = (1/M) Tr[sqrt(rho) R (I + sqrt(rho) r R)^{-1}], likewise r with J_k T
        t_rhs = (sr / m) * np.trace(np.linalg.solve(np.eye(n) + sr * r * r_mat, r_mat))
        r_rhs = (sr / m) * np.trace(np.linalg.solve(np.eye(m) + sr * t * jt, jt))
        slack = 1e-14 * (1.0 + t + r)   # round-off of the dense evaluation
        assert abs(t - t_rhs.real) <= TOL + slack
        assert abs(r - r_rhs.real) <= TOL + slack
        assert abs(t_rhs.imag) <= slack and abs(r_rhs.imag) <= slack

    # Pole crossing: with max_iter=1 only the documented first guess t0 is evaluated, so
    # StabilityViolation must fire exactly where the dense resolvent there
    # leaves the domain: 1 + s nu_min <= 0 for nu = eig(T + c u u^H), or, past
    # that, 1 + sqrt(rho) r lam_max <= 0 for the r it gives.
    s0 = sr * sr * min(1.0, n / m) / (1.0 + sr)
    u = pair.t_sqrt[:, 0]
    lam_max = np.linalg.eigvalsh(r_mat)[-1]
    for x0 in POLE_XS:
        jt = t_mat.copy()
        jt[0, :] *= x0
        edge_t = 1.0 + s0 * np.linalg.eigvalsh(t_mat + (x0 - 1.0) * np.outer(u, u.conj()))[0]
        r0 = (sr / m) * np.trace(np.linalg.solve(np.eye(m) + s0 * jt, jt)).real
        edge_r = 1.0 + sr * r0 * lam_max
        if abs(edge_t) < 1e-9 or (edge_t > 0.0 and abs(edge_r) < 1e-9):
            continue   # too close to the pole for round-off to decide
        crossed = edge_t <= 0.0 or edge_r <= 0.0
        with pytest.raises(StabilityViolation if crossed else NonConvergence):
            solve_fixed_point(pair, cfg, Deformation(0, x0), tol=TOL, max_iter=1)


@given(systems())
def test_mean_sinr_and_optimal_model_match_dense_oracle(system):
    pair, cfg = system
    with warnings.catch_warnings():
        # kronecker_stats takes float() of traces that are complex for a complex T
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        ref = checks.kronecker_stats(np.asarray(pair.R), np.asarray(pair.T), cfg.rho)
    model = mmse_mi_gaussian(pair, cfg)
    opt = optimal_mi_gaussian(pair, cfg)
    np.testing.assert_allclose(model.mean_sinr.gamma_bar, ref["gamma_bar"].real, rtol=1e-8)
    assert opt.c1 == pytest.approx(ref["opt_c1"], rel=1e-8)
    assert opt.c2 == pytest.approx(ref["opt_c2"], rel=1e-8)
    # the MMSE model carries the optimal model of the same point
    assert model.optimal == opt
    for k in range(cfg.M):
        assert opt.c2 == pytest.approx(logdet_joint_cumulant(pair, cfg, k, k, 1.0, 1.0),
                                       rel=1e-12)


@given(systems(), st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=6))
def test_grid_models_equal_one_point_models(system, snr_db):
    # lanes never mix, so each point of the one stacked solve gives the bits
    # of the model solved at that SNR alone
    pair, cfg = system
    rhos = [10.0 ** (db / 10.0) for db in snr_db]
    for model, rho in zip(mmse_mi_gaussian_grid(pair, cfg, rhos), rhos, strict=True):
        one = mmse_mi_gaussian(pair, replace(cfg, rho=rho))
        assert model == one and model.optimal == one.optimal
        np.testing.assert_array_equal(model.mean_sinr.gamma_bar, one.mean_sinr.gamma_bar)
        np.testing.assert_array_equal(model.mean_sinr.delta_gamma, one.mean_sinr.delta_gamma)
        np.testing.assert_array_equal(model.sigma.sigma, one.sigma.sigma)


@given(systems(kinds=["exponential", "complex-t", "single-stream"]), st.floats(0.0, 30.0),
       st.integers(0, 2**32 - 1))
def test_mmse_mi_never_exceeds_logdet_mi(system, snr_db, seed):
    # sum_k log(1 + gamma_k) <= log det(I + (rho/M) H^H H), trial by trial
    pair, cfg = system
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((64, cfg.N, cfg.M))
         + 1j * rng.standard_normal((64, cfg.N, cfg.M))) * np.sqrt(0.5)
    h = pair.r_sqrt @ g @ pair.t_sqrt.T
    _, mi, opt = receiver_values(gram(h), 10.0 ** (snr_db / 10.0))
    assert np.all(mi <= opt + 1e-12 * np.abs(opt))


@given(systems(), st.lists(st.integers(-10, 60), min_size=3, max_size=5, unique=True),
       st.integers(256, 1024), st.integers(0, 2**64 - 1))
def test_shared_draw_samples_never_fall_with_snr(system, half_db, trials, seed):
    # every grid point sees the same channels, and each trial's MMSE and
    # log-det mutual informations grow with rho, so every order statistic
    # does too and the empirical outage never rises, at any rate
    pair, cfg = system
    rhos = [10.0 ** (k / 20.0) for k in sorted(half_db)]
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=trials, master_seed=seed)
    grid = run_trials_grid(spec, rhos, n_workers=1)
    for lower, higher in zip(grid, grid[1:]):
        assert np.all(higher.mi_samples >= lower.mi_samples)
        assert np.all(higher.opt_samples >= lower.opt_samples)
