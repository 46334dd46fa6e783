import json

import numpy as np
import pytest
from numpy.random import Generator, Philox

from mimo_asympt import (
    CorrelationPair,
    SystemConfig,
    build_exponential_correlation,
    load_correlation_json,
    psd_sqrt,
    sample_channel,
    save_correlation_json,
)
from mimo_asympt.channel import _draw_channels


def test_config_validation():
    cfg = SystemConfig(M=4, N=8, rho=2.0)
    assert cfg.beta == 0.5
    with pytest.raises(ValueError):
        SystemConfig(M=0, N=4, rho=1.0)
    with pytest.raises(ValueError):
        SystemConfig(M=4, N=2, rho=1.0)  # beta > 1 rejected
    with pytest.raises(ValueError):
        SystemConfig(M=2, N=4, rho=0.0)
    with pytest.raises(ValueError):
        SystemConfig(M=2, N=4, rho=float("inf"))


def test_exponential_correlation_zero_is_identity():
    np.testing.assert_array_equal(build_exponential_correlation(3, 0.0), np.eye(3))


def test_exponential_correlation_half():
    np.testing.assert_allclose(
        build_exponential_correlation(2, 0.5), [[1.0, 0.5], [0.5, 1.0]]
    )


def test_exponential_correlation_high_zeta_is_pd():
    k = build_exponential_correlation(4, 0.9)
    w = np.linalg.eigvalsh(k)  # independent eigensolver check
    assert w[0] > 0.0
    assert np.allclose(np.diag(k), 1.0)


@pytest.mark.parametrize("zeta", [-0.1, 1.0, 1.5])
def test_exponential_correlation_rejects_bad_zeta(zeta):
    with pytest.raises(ValueError):
        build_exponential_correlation(3, zeta)


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_reproduces_input():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    s = psd_sqrt(a)
    np.testing.assert_allclose(s @ s, a, atol=1e-10)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_psd_sqrt_clips_tiny_negative():
    s = psd_sqrt(np.diag([1.0, -5e-11]))
    assert s[1, 1] == 0.0


def test_correlation_pair_validation():
    with pytest.raises(ValueError):
        CorrelationPair(np.array([[1.0, 0.2], [0.3, 1.0]]), np.eye(2))  # not Hermitian
    with pytest.raises(ValueError):
        CorrelationPair(np.diag([1.0, -1.0]), np.eye(2))  # not PSD


def test_sample_channel_deterministic():
    pair = CorrelationPair.identity(3, 2)
    cfg = SystemConfig(M=2, N=3, rho=1.0)
    h1 = sample_channel(pair, cfg, master_seed=42, trial_index=7)
    h2 = sample_channel(pair, cfg, master_seed=42, trial_index=7)
    assert np.array_equal(h1, h2)
    h3 = sample_channel(pair, cfg, master_seed=42, trial_index=8)
    assert not np.allclose(h1, h3)


def test_sample_channel_dimension_mismatch():
    pair = CorrelationPair.identity(3, 2)
    with pytest.raises(ValueError):
        sample_channel(pair, SystemConfig(M=2, N=4, rho=1.0), 0, 0)


def _moment_rows(pair, cfg, seed, k, chunk=8192):
    """Rows 0..k-1 of the (seed, trial) draw, in chunks; one row is also drawn alone."""
    rows = np.concatenate([_draw_channels(pair, seed, lo, min(lo + chunk, k))
                           for lo in range(0, k, chunk)])
    probe = k // 3
    assert np.array_equal(sample_channel(pair, cfg, seed, probe), rows[probe])
    return rows


def test_sample_channel_unit_variance():
    # E|H_11|^2 = 1 for identity correlations, tolerance ~3 sigma at 1e5 draws
    pair = CorrelationPair.identity(2, 2)
    cfg = SystemConfig(M=2, N=2, rho=1.0)
    k = 100_000
    h = _moment_rows(pair, cfg, 2024, k)
    assert 0.99 <= np.sum(np.abs(h[:, 0, 0]) ** 2) / k <= 1.01


def test_sample_channel_receive_correlation():
    # E[H_11 conj(H_21)] = R_12 * T_11 = 0.7
    pair = CorrelationPair(np.array([[1.0, 0.7], [0.7, 1.0]]), np.eye(2))
    cfg = SystemConfig(M=2, N=2, rho=1.0)
    k = 100_000
    h = _moment_rows(pair, cfg, 555, k)
    est = np.sum(h[:, 0, 0] * np.conj(h[:, 1, 0])) / k
    assert abs(est - 0.7) <= 0.01


def test_sample_channel_full_kronecker_moment_complex_t():
    # E[H_ia conj(H_jb)] -> R_ij T_ab including a complex transmit entry,
    # tolerance 4/sqrt(K)
    r = build_exponential_correlation(3, 0.6)
    t = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    pair = CorrelationPair(r, t)
    cfg = SystemConfig(M=2, N=3, rho=1.0)
    k = 100_000
    h = _moment_rows(pair, cfg, 777, k)
    est = np.einsum("kia,kjb->iajb", h, h.conj()) / k
    tol = 4.0 / np.sqrt(k)
    for (i, a, j, b) in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 2, 1), (0, 1, 1, 0)]:
        assert abs(est[i, a, j, b] - r[i, j] * t[a, b]) <= tol


def test_correlation_json_roundtrip(tmp_path):
    t = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    path = tmp_path / "t.json"
    save_correlation_json(path, t)
    loaded = load_correlation_json(path)
    np.testing.assert_array_equal(loaded, t)
    doc = json.loads(path.read_text())
    assert doc["n"] == 2
    assert doc["entries"][0][1] == [0.3, 0.2]


def test_correlation_json_rejects_bad_shapes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [[[1, 0]]]}))
    with pytest.raises(ValueError):
        load_correlation_json(path)
    path.write_text(json.dumps({"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], 1.0]]}))
    with pytest.raises(ValueError):
        load_correlation_json(path)


def _oracle_channel(pair, seed, i):
    # one fresh Generator per trial, as the draw is specified
    z = Generator(Philox(key=[seed, i])).standard_normal((2, pair.n, pair.m))
    return pair.r_sqrt @ ((z[0] + 1j * z[1]) * np.sqrt(0.5)) @ pair.t_sqrt.T


@pytest.mark.parametrize("pair", [
    CorrelationPair.identity(10, 5),
    CorrelationPair(build_exponential_correlation(32, 0.5),
                    build_exponential_correlation(16, 0.3)),
    CorrelationPair(build_exponential_correlation(3, 0.6),
                    np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])),
], ids=["iid-m5n10", "exp-m16n32", "complex-t"])
def test_sample_channel_matches_per_trial_philox_oracle(pair):
    cfg = SystemConfig(M=pair.m, N=pair.n, rho=1.0)
    seed = 20260810
    for i in (0, 1, 511, 512, 4097):
        h = sample_channel(pair, cfg, seed, i)
        assert np.array_equal(h, _oracle_channel(pair, seed, i)), i
    # a chunk drawn by the Monte Carlo engine holds the same rows
    rows = _draw_channels(pair, seed, 500, 530)
    for k in range(len(rows)):
        assert np.array_equal(rows[k], _oracle_channel(pair, seed, 500 + k)), 500 + k
