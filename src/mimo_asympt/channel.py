"""Kronecker-correlated MIMO channel ensemble.

Builds and validates the receive/transmit correlation matrices, and draws
channel realizations H = R^{1/2} G T^{1/2} with i.i.d. circularly-symmetric
complex Gaussian G (unit variance per complex entry, so that
E[H_ia conj(H_jb)] = R_ij T_ab when R and T have unit diagonals).

Randomness is counter-based and keyed by block of K = _block_rows(N, M)
trials (see _draw_channels), so sampling is reproducible under any execution
order, chunking or worker count.
"""

from dataclasses import dataclass, field
import json

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "SystemConfig",
    "CorrelationPair",
    "build_exponential_correlation",
    "psd_sqrt",
    "sample_channel",
    "load_correlation_json",
    "save_correlation_json",
]

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts and transmit SNR for one scenario.

    M transmit and N receive antennas with N >= M (load factor
    beta = M/N <= 1), and linear transmit SNR rho = M*Es/N0 > 0.
    """

    M: int
    N: int
    rho: float

    def __post_init__(self):
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= self.M):
            raise ValueError(f"need N >= M >= 1, got M={self.M}, N={self.N}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho!r}")

    @property
    def beta(self) -> float:
        return self.M / self.N


def _as_readonly_complex(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _check_correlation(name: str, a: np.ndarray):
    """Validate a correlation matrix and return its _psd_factors."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    herm = np.max(np.abs(a - a.conj().T))
    if herm > _HERMITICITY_TOL:
        raise ValueError(f"{name} not Hermitian: max |A - A^H| = {herm:.3e}")
    if np.max(np.abs(np.diag(a).imag)) > _HERMITICITY_TOL:
        raise ValueError(f"{name} has non-real diagonal entries")
    return _psd_factors(name, a)


def _psd_factors(name: str, a: np.ndarray):
    """(eigenvalues, eigenvectors, Hermitian square root) of a PSD matrix, by one eigh.

    Eigenvalues in [-1e-10, 0) are clipped to zero so that slightly
    rank-deficient matrices survive; anything more negative raises ValueError.
    """
    w, u = np.linalg.eigh(a)
    if w[0] < -_PSD_TOL:
        raise ValueError(f"{name} not PSD: smallest eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    s = (u * np.sqrt(w)) @ u.conj().T
    # symmetrize away roundoff so the result is exactly Hermitian
    return w, u, 0.5 * (s + s.conj().T)


@dataclass(frozen=True)
class CorrelationPair:
    """Receive (N x N) and transmit (M x M) correlation matrices.

    Both must be Hermitian within 1e-12 and PSD within -1e-10 on the
    smallest eigenvalue. Each is stored read-only and decomposed once, by
    one eigh: the PSD check, the clipped spectrum (ascending) and the square
    root come from it, and so do T's eigenvectors, in the spectrum's order.
    """

    R: np.ndarray
    T: np.ndarray
    r_eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    r_sqrt: np.ndarray = field(init=False, repr=False, compare=False)
    t_eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    t_eigvecs: np.ndarray = field(init=False, repr=False, compare=False)
    t_sqrt: np.ndarray = field(init=False, repr=False, compare=False)
    r_identity: bool = field(init=False, repr=False, compare=False)
    t_identity: bool = field(init=False, repr=False, compare=False)
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r, t = _as_readonly_complex(self.R), _as_readonly_complex(self.T)
        (r_w, _, r_s), (t_w, t_u, t_s) = _check_correlation("R", r), _check_correlation("T", t)
        for name, value in (("R", r), ("T", t), ("r_eigvals", r_w), ("r_sqrt", r_s),
                            ("t_eigvals", t_w), ("t_eigvecs", t_u), ("t_sqrt", t_s)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        eye = [bool(np.array_equal(a, np.eye(len(a)))) for a in (r, t)]
        for name, value in zip(("r_identity", "t_identity", "is_identity"), eye + [all(eye)]):
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, n: int, m: int) -> "CorrelationPair":
        return cls(np.eye(n), np.eye(m))

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def m(self) -> int:
        return self.T.shape[0]

    def _check_fits(self, config) -> None:
        if (self.n, self.m) != (config.N, config.M):
            raise ValueError(f"correlation pair is ({self.n}, {self.m}), "
                             f"config wants ({config.N}, {config.M})")


def build_exponential_correlation(n: int, zeta: float) -> np.ndarray:
    """Exponential Toeplitz correlation matrix, entry (i, j) = zeta^|i-j|.

    Real symmetric with unit diagonal, PSD for 0 <= zeta < 1. zeta = 1 is
    rejected (rank-one degenerate limit, PSD margin not guaranteed in
    floating point).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= zeta < 1.0):
        raise ValueError(f"zeta must lie in [0, 1), got {zeta!r}")
    k = np.arange(n)
    return (zeta ** k)[np.abs(np.subtract.outer(k, k))].astype(np.float64)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition (clipped as in _psd_factors)."""
    return _psd_factors("matrix", np.asarray(a))[2]


def _block_rows(n: int, m: int) -> int:
    """Rows K of a Philox block: the largest power of two <= min(512, 2**15 // (N·M))."""
    return min(512, 1 << (max(1, 2**15 // (n * m)).bit_length() - 1))


def _draw_channels(pair: CorrelationPair, master_seed: int, lo: int, hi: int) -> np.ndarray:
    """H = R^{1/2} G T^{1/2} for trials [lo, hi) as one (hi - lo, N, M) array.

    Trial i is row i % K of Generator(Philox(key=[master_seed, i // K]))
    .standard_normal((K, 2, N, M)) (real parts, then imaginary parts), with
    K = _block_rows(N, M). One call draws each block the window touches, up
    to hi; the first block's rows before lo are dropped, so any window agrees.
    """
    k = _block_rows(pair.n, pair.m)
    start = lo - lo % k
    z = np.empty((hi - start, 2, pair.n, pair.m))
    for b in range(start, hi, k):
        key = np.array([master_seed, b // k], dtype=np.uint64)
        Generator(Philox(key=key)).standard_normal(out=z[b - start:b - start + k])
    g = np.empty((hi - lo, pair.n, pair.m), dtype=np.complex128)
    np.multiply(z[lo - start:, 0], np.sqrt(0.5), out=g.real)
    np.multiply(z[lo - start:, 1], np.sqrt(0.5), out=g.imag)
    # A side that is the identity skips its factor, which changes no bit. The plain
    # transpose on T^{1/2} gives the transmit correlation T_ab, not its conjugate.
    if not pair.r_identity:
        g = pair.r_sqrt @ g
    return g if pair.t_identity else g @ pair.t_sqrt.T


def sample_channel(pair: CorrelationPair, config: SystemConfig,
                   master_seed: int, trial_index: int) -> np.ndarray:
    """Draw the N x M matrix H = R^{1/2} G T^{1/2} for (master_seed, trial_index).

    Bit-identical to row trial_index of any window the Monte Carlo engine
    draws; at most K = _block_rows(N, M) rows are drawn for it.
    """
    pair._check_fits(config)
    return _draw_channels(pair, master_seed, trial_index, trial_index + 1)[0]


def save_correlation_json(path, matrix: np.ndarray) -> None:
    """Write a correlation matrix as {"n": ..., "entries": [[[re, im], ...], ...]}."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    doc = {
        "n": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_correlation_json(path) -> np.ndarray:
    """Read a matrix written by save_correlation_json; ValueError on a bad shape or entry."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("correlation file must be an object with keys 'n' and 'entries'")
    n = doc["n"]
    a = np.array(doc["entries"], dtype=np.float64)
    if not isinstance(n, int) or a.shape != (n, n, 2) or not np.isfinite(a).all():
        raise ValueError(f"entries must be n x n finite [re, im] pairs with n={n!r}, "
                         f"got shape {a.shape}")
    return a.view(np.complex128)[..., 0]
