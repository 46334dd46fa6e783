import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
from mimo_asympt.channel import _block_rows, _draw_channels


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
    # one fresh Generator per block of K trials, as the draw is specified
    k = _block_rows(pair.n, pair.m)
    z = Generator(Philox(key=[seed, i // k])).standard_normal((k, 2, pair.n, pair.m))[i % k]
    return pair.r_sqrt @ ((z[0] + 1j * z[1]) * np.sqrt(0.5)) @ pair.t_sqrt.T


@pytest.mark.parametrize("pair", [
    CorrelationPair.identity(10, 5),
    CorrelationPair(build_exponential_correlation(32, 0.5),
                    build_exponential_correlation(16, 0.3)),
    CorrelationPair(build_exponential_correlation(3, 0.6),
                    np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])),
], ids=["iid-m5n10", "exp-m16n32", "complex-t"])
def test_sample_channel_matches_block_philox_oracle(pair):
    cfg = SystemConfig(M=pair.m, N=pair.n, rho=1.0)
    seed = 20260810
    for i in (0, 1, 511, 512, 4097):
        h = sample_channel(pair, cfg, seed, i)
        assert np.array_equal(h, _oracle_channel(pair, seed, i)), i
    # a chunk drawn by the Monte Carlo engine holds the same rows
    rows = _draw_channels(pair, seed, 500, 530)
    for k in range(len(rows)):
        assert np.array_equal(rows[k], _oracle_channel(pair, seed, 500 + k)), 500 + k


def test_block_rows_divide_the_batch_and_fill_a_default_chunk():
    # K is a power of two that divides the engine's 4096-trial batch and is at
    # most the default chunk rows, min(512, 2**15 // (N·M)), so a default
    # chunk is whole blocks
    for m, n in [(1, 1), (2, 2), (5, 10), (4, 20), (16, 32), (32, 64), (64, 128), (200, 200)]:
        k, chunk = _block_rows(n, m), max(1, min(512, 2**15 // (n * m)))
        assert 4096 % k == 0 and k <= chunk < 2 * k, (m, n, k)
    assert [_block_rows(2 * m, m) for m in (5, 16, 32)] == [512, 64, 16]


_WINDOW_PAIRS = [CorrelationPair.identity(10, 5), CorrelationPair.identity(32, 16),
                 CorrelationPair(build_exponential_correlation(3, 0.6),
                                 np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]]))]
_WHOLE = [_draw_channels(pair, 99, 0, 4700) for pair in _WINDOW_PAIRS]


@given(st.integers(0, 2), st.integers(0, 4699), st.integers(1, 1200))
@example(0, 4095, 1).via("one row before a batch edge")
@example(0, 4096, 1).via("the first row of the second batch")
@example(0, 4097, 1).via("one row after a batch edge")
@example(0, 4095, 3).via("across 4095, 4096 and 4097")
@example(1, 4095, 2).via("across a batch edge in 64-row blocks")
@example(1, 70, 20).via("inside one 64-row block")
@example(1, 60, 10).via("across one 64-row block edge")
@example(1, 10, 200).via("across several 64-row blocks")
@example(0, 300, 100).via("inside one 512-row block")
@example(0, 500, 30).via("across one 512-row block edge")
@example(2, 0, 4700).via("the whole range")
def test_every_window_equals_its_slice_of_one_whole_draw(which, lo, size):
    pair, whole = _WINDOW_PAIRS[which], _WHOLE[which]
    hi = min(lo + size, len(whole))
    assert np.array_equal(_draw_channels(pair, 99, lo, hi), whole[lo:hi])


@pytest.mark.parametrize("r, t", [
    (np.eye(6), build_exponential_correlation(3, 0.4)),
    (build_exponential_correlation(6, 0.7), np.eye(3)),
    (np.eye(6), np.array([[1.0, 0.3 + 0.2j, 0.0], [0.3 - 0.2j, 1.0, 0.1], [0.0, 0.1, 1.0]])),
], ids=["r-identity", "t-identity", "r-identity-complex-t"])
def test_skipped_identity_factor_changes_no_bit(r, t):
    # a side that is the identity skips its factor; the full product agrees bit for bit
    pair = CorrelationPair(r, t)
    assert (pair.r_identity, pair.t_identity) == (np.array_equal(r, np.eye(6)),
                                                  np.array_equal(t, np.eye(3)))
    assert not pair.is_identity
    got = _draw_channels(pair, 4242, 300, 1100)
    g = _draw_channels(CorrelationPair.identity(6, 3), 4242, 300, 1100)
    assert np.array_equal(got, pair.r_sqrt @ g @ pair.t_sqrt.T)
