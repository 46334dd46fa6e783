import numpy as np
import pytest

from oracles import (
    mutual_info_mmse,
    mutual_info_optimal,
    sinr_deflated,
    sinr_exact,
    sinr_trace_identity,
)


def _random_h(rng, n, m):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def test_zero_channel():
    h = np.zeros((3, 2))
    np.testing.assert_allclose(sinr_exact(h, 2.0), 0.0, atol=1e-14)
    assert sinr_trace_identity(h, 5.0, 0) == 0.0
    assert mutual_info_optimal(h, 2.0) == 0.0


def test_identity_channel():
    h = np.eye(2)
    np.testing.assert_allclose(sinr_exact(h, 2.0), [1.0, 1.0], rtol=1e-14)
    assert sinr_trace_identity(h, 2.0, 0) == pytest.approx(1.0, rel=1e-12)
    assert mutual_info_optimal(h, 2.0) == pytest.approx(2 * np.log(2.0), rel=1e-14)


def test_sinr_exact_matches_deflated_form():
    rng = np.random.default_rng(7)
    h = _random_h(rng, 4, 2)
    a = sinr_exact(h, 10.0)
    b = sinr_deflated(h, 10.0)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_trace_identity_property():
    # 100 random (H, rho): trace expression == single-inverse SINR to 1e-10
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, min(n, 8) + 1))
        rho = float(10 ** rng.uniform(-1, 2))
        h = _random_h(rng, n, m)
        gam = sinr_exact(h, rho)
        k = int(rng.integers(0, m))
        ti = sinr_trace_identity(h, rho, k)
        worst = max(worst, abs(ti - gam[k]) / max(gam[k], 1e-300))
    assert worst <= 1e-10


def test_trace_identity_index_range():
    h = np.eye(2)
    with pytest.raises(IndexError):
        sinr_trace_identity(h, 1.0, 2)


def test_mutual_info_mmse_exact_logs():
    assert mutual_info_mmse(np.zeros(3)) == 0.0
    assert mutual_info_mmse(np.array([1.0, 1.0])) == pytest.approx(2 * np.log(2.0))
    gam = np.array([np.e - 1.0, np.e**2 - 1.0])
    assert mutual_info_mmse(gam) == pytest.approx(3.0, rel=1e-14)


def test_mutual_info_optimal_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    h = _random_h(rng, 4, 2)
    rho = 10.0
    lam = np.linalg.eigvalsh(h.conj().T @ h)
    oracle = np.log1p((rho / 2) * lam).sum()
    assert mutual_info_optimal(h, rho) == pytest.approx(oracle, rel=1e-10)


def test_receiver_ordering():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n + 1))
        rho = float(10 ** rng.uniform(-1, 2))
        h = _random_h(rng, n, m)
        assert mutual_info_optimal(h, rho) >= mutual_info_mmse(sinr_exact(h, rho)) - 1e-12


def test_unitary_invariance():
    rng = np.random.default_rng(9)
    h = _random_h(rng, 5, 3)
    q, _ = np.linalg.qr(_random_h(rng, 5, 5))
    np.testing.assert_allclose(sinr_exact(q @ h, 4.0), sinr_exact(h, 4.0), rtol=1e-10)
