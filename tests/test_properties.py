"""Property tests over drawn Kronecker pairs.

Each example draws a pair kind, sizes, an SNR of at most 10 dB and a seed
for the matrices: exponential correlations, a random real PSD pair, a
complex Hermitian T, a rank-deficient T and M = 1. The exact covariance is
checked against the finite-difference stencil, and every lane of a stacked
Newton solve against a dense evaluation of both equations that shares no
code with it, as is the point where a negative deformation makes the solver
refuse.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mimo_asympt import (
    CorrelationPair,
    Deformation,
    NonConvergence,
    StabilityViolation,
    SystemConfig,
    build_exponential_correlation,
    sinr_covariance,
    sinr_covariance_exact,
    solve_fixed_point,
)

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
def systems(draw):
    kind = draw(st.sampled_from(KINDS))
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
