import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mimo_asympt import (
    CorrelationPair,
    StepTooLarge,
    SystemConfig,
    build_exponential_correlation,
    iid_closed_forms,
    logdet_joint_cumulant,
    sinr_covariance,
    sinr_covariance_exact,
)


def _iid(m, n, rho):
    return CorrelationPair.identity(n, m), SystemConfig(M=m, N=n, rho=rho)


def test_closed_forms_scalar_values():
    cfg = SystemConfig(M=4, N=4, rho=2.0)
    cf = iid_closed_forms(cfg)
    # beta = 1 reduction: g = (sqrt(1+4 rho) - 1)/2 = 1
    assert cf.g == pytest.approx(1.0, abs=1e-12)

    cfg = SystemConfig(M=4, N=8, rho=4.0)
    cf = iid_closed_forms(cfg)
    assert cf.g == pytest.approx(4.70156, abs=1e-5)
    assert cf.v_d == pytest.approx(0.5 * cf.g**2 / (1 - 0.5 * cf.g**2 / (1 + cf.g) ** 2))
    assert cf.v_d == pytest.approx(16.746, abs=2e-3)


def test_closed_forms_zero_snr_limit():
    cfg = SystemConfig(M=4, N=8, rho=1e-12)
    cf = iid_closed_forms(cfg)
    assert abs(cf.g) <= 1e-11
    assert abs(cf.v_d) <= 1e-11
    assert abs(cf.v_od) <= 1e-11


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("snr_db", [-30.0, -45.0, -60.0, -75.0, -90.0, -105.0, -120.0])
def test_closed_form_g_keeps_its_digits_at_low_snr(beta, snr_db):
    # the root of beta g^2 - a g - rho = 0 in 50 decimal digits, where the
    # cancellation of a + sqrt(a^2 + 4 rho beta) (a < 0) still leaves 38
    cfg = SystemConfig(M=4, N=round(4 / beta), rho=10.0 ** (snr_db / 10.0))
    with localcontext() as ctx:
        ctx.prec = 50
        b, r = Decimal(cfg.beta), Decimal(cfg.rho)
        a = r * (1 - b) - b
        g = (a + (a * a + 4 * r * b).sqrt()) / (2 * b)
    assert a < 0
    assert abs(iid_closed_forms(cfg).g - float(g)) <= 1e-13 * float(g)


def test_joint_cumulant_undeformed_identity_value():
    # k = l, J = I, beta = 0.5, rho = 4: M_t = rho/(1+g)^2, M_r = (rho/beta)/(1+v)^2
    pair, cfg = _iid(8, 16, 4.0)
    got = logdet_joint_cumulant(pair, cfg, 0, 0, 1.0, 1.0)
    g = iid_closed_forms(cfg).g
    m_t = 4.0 / (1 + g) ** 2
    v = 4.0 / (1 + g)
    m_r = 8.0 / (1 + v) ** 2
    expect = -np.log1p(-m_t * m_r)
    assert got == pytest.approx(expect, rel=1e-10)
    assert m_t == pytest.approx(0.12305, abs=1e-5)
    assert m_r == pytest.approx(2.7631, abs=1e-4)
    assert got == pytest.approx(0.41552, abs=2e-5)


def test_joint_cumulant_zero_snr():
    pair, cfg = _iid(4, 8, 1e-12)
    assert logdet_joint_cumulant(pair, cfg, 0, 0, 1.0, 1.0) <= 1e-10


def test_joint_cumulant_swap_symmetry():
    pair = CorrelationPair(
        build_exponential_correlation(8, 0.5), build_exponential_correlation(4, 0.3)
    )
    cfg = SystemConfig(M=4, N=8, rho=5.0)
    a = logdet_joint_cumulant(pair, cfg, 1, 2, 0.3, 0.7)
    b = logdet_joint_cumulant(pair, cfg, 2, 1, 0.7, 0.3)
    assert a == pytest.approx(b, rel=1e-12)


def test_identity_stencil_is_permutation_symmetric():
    # every stream's nodes are solved and differenced: an identity pair must
    # still give one value on the diagonal and one off it
    pair, cfg = _iid(3, 6, 4.0)
    s = sinr_covariance(pair, cfg).sigma
    off = s[~np.eye(3, dtype=bool)]
    assert np.ptp(np.diagonal(s)) <= 1e-12 * s[0, 0]
    assert np.ptp(off) <= 1e-12 * abs(off[0])


def test_identity_permutation_symmetry_and_positivity():
    pair, cfg = _iid(4, 8, 4.0)
    s = sinr_covariance(pair, cfg).sigma
    assert np.ptp(np.diagonal(s)) <= 1e-12
    off = s[~np.eye(4, dtype=bool)]
    assert np.ptp(off) <= 1e-12
    assert np.all(np.diagonal(s) > 0)


def test_covariance_symmetric_psd_correlated():
    pair = CorrelationPair(
        build_exponential_correlation(8, 0.5), build_exponential_correlation(4, 0.3)
    )
    cfg = SystemConfig(M=4, N=8, rho=4.0)
    s = sinr_covariance(pair, cfg).sigma
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    w = np.linalg.eigvalsh(s)
    assert w[0] >= -1e-6 * np.trace(s)


def test_scaling_law_identity():
    # M*Sigma_kk and M^2*Sigma_kl converge: successive drifts shrink
    rho = 4.0
    diag_seq, off_seq = [], []
    for m in (4, 8, 16, 32):
        pair, cfg = _iid(m, 2 * m, rho)
        s = sinr_covariance(pair, cfg).sigma
        diag_seq.append(m * s[0, 0])
        off_seq.append(m * m * s[0, 1])
    d_drifts = np.abs(np.diff(diag_seq))
    o_drifts = np.abs(np.diff(off_seq))
    assert d_drifts[1] < d_drifts[0] and d_drifts[2] < d_drifts[1]
    assert o_drifts[1] < o_drifts[0] and o_drifts[2] < o_drifts[1]
    # the limits are the closed-form coefficients
    cf = iid_closed_forms(SystemConfig(M=32, N=64, rho=rho))
    assert abs(diag_seq[-1] - cf.v_d) / cf.v_d < 0.05
    assert abs(off_seq[-1] - cf.v_od) / abs(cf.v_od) < 0.05


def test_step_too_large():
    pair, cfg = _iid(2, 4, 100.0)
    with pytest.raises(StepTooLarge):
        sinr_covariance(pair, cfg, step=2.0)


def test_finite_m_gap_to_closed_forms_shrinks():
    # The finite-M difference path carries an O(1/M) relative gap to the
    # closed forms; check the gap roughly halves per doubling of M.
    rho = 4.0
    gaps = []
    for m in (8, 16, 32):
        pair, cfg = _iid(m, 2 * m, rho)
        s = sinr_covariance(pair, cfg).sigma
        cf = iid_closed_forms(cfg)
        gaps.append(abs(s[0, 0] - cf.v_d / m) / (cf.v_d / m))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.2)


def test_stencil_converges_onto_exact_covariance():
    # the Richardson stencil's error is O(h^4), so its gap to the exact
    # matrix shrinks ~16x per halving of the step
    pair = CorrelationPair(
        build_exponential_correlation(32, 0.5), build_exponential_correlation(16, 0.3)
    )
    cfg = SystemConfig(M=16, N=32, rho=10 ** 1.2)
    exact = sinr_covariance_exact(pair, cfg)
    assert exact.method == "implicit"
    gaps = [np.max(np.abs(sinr_covariance(pair, cfg, step=h).sigma - exact.sigma))
            for h in (2e-3, 1e-3, 5e-4)]
    assert gaps[0] / gaps[1] >= 8.0
    assert gaps[1] / gaps[2] >= 8.0


def test_exact_covariance_peak_memory():
    # the exact covariance builds no (M, M, M) stack: one such stack in real
    # arithmetic is 2.1 MB at M = 64, and a warm call stays under 2 MB
    pair = CorrelationPair(
        build_exponential_correlation(128, 0.5), build_exponential_correlation(64, 0.3)
    )
    cfg = SystemConfig(M=64, N=128, rho=10 ** 0.93)
    sinr_covariance_exact(pair, cfg)   # the pair's eigendecompositions are built once
    tracemalloc.start()
    try:
        sinr_covariance_exact(pair, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


@pytest.mark.parametrize("rho", [1.0, 4.0, 10.0])
def test_exact_covariance_extrapolates_to_closed_forms(rho):
    # M Sigma_00 and M^2 Sigma_01 of an i.i.d. pair at N = 2M approach v_d and
    # v_od with O(1/M) and O(1/M^2) terms; two Richardson levels over M = 8,
    # 16 and 32 remove both, leaving the M -> infinity coefficients
    cf = iid_closed_forms(SystemConfig(M=8, N=16, rho=rho))
    f = {}
    for m in (8, 16, 32):
        sig = sinr_covariance_exact(*_iid(m, 2 * m, rho)).sigma
        f[m] = np.array([m * sig[0, 0], m * m * sig[0, 1]])
    r1 = {m: 2.0 * f[2 * m] - f[m] for m in (8, 16)}
    r2 = (4.0 * r1[16] - r1[8]) / 3.0
    np.testing.assert_allclose(r2, [cf.v_d, cf.v_od], rtol=1e-4)
