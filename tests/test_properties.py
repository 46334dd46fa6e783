"""Property tests over drawn Kronecker pairs.

Each example draws a pair kind, sizes, an SNR of at most 10 dB and a seed
for the matrices: exponential correlations, a random real PSD pair, a
complex Hermitian T, a rank-deficient T and M = 1. The exact covariance is
checked against the finite-difference stencil, and the Newton fixed point
against a dense evaluation of both equations that shares no code with it.
"""

import numpy as np
from hypothesis import given, strategies as st

from mimo_asympt import (
    CorrelationPair,
    Deformation,
    SystemConfig,
    build_exponential_correlation,
    sinr_covariance,
    sinr_covariance_exact,
    solve_fixed_point,
)

KINDS = ["exponential", "real-psd", "complex-t", "rank-deficient-t", "single-stream"]
TOL = 1e-12


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
    gaps = [np.max(np.abs(sinr_covariance(pair, cfg, step=h, exploit_symmetry=False).sigma
                          - exact)) for h in (1e-3, 2.5e-4)]
    assert min(gaps) <= 1e-6 * scale
    assert np.array_equal(exact, exact.T)


@given(systems())
def test_newton_fixed_point_satisfies_both_equations(system):
    pair, cfg = system
    m, sr = cfg.M, np.sqrt(cfg.rho)
    r_mat, t_mat = np.asarray(pair.R), np.asarray(pair.T)
    for k in (None, 0, m - 1):
        sol = solve_fixed_point(pair, cfg, None if k is None else Deformation(k, 0.0), tol=TOL)
        jt = t_mat.copy()
        if k is not None:
            jt[k, :] = 0.0
        # t = (1/M) Tr[sqrt(rho) R (I + sqrt(rho) r R)^{-1}], likewise r with J_k T
        t_rhs = (sr / m) * np.trace(np.linalg.solve(np.eye(cfg.N) + sr * sol.r * r_mat, r_mat))
        r_rhs = (sr / m) * np.trace(np.linalg.solve(np.eye(m) + sr * sol.t * jt, jt))
        slack = 1e-14 * (1.0 + sol.t + sol.r)   # round-off of the dense evaluation
        assert abs(sol.t - t_rhs.real) <= TOL + slack
        assert abs(sol.r - r_rhs.real) <= TOL + slack
        assert abs(t_rhs.imag) <= slack and abs(r_rhs.imag) <= slack
