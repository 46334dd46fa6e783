"""Exact finite-dimensional receiver quantities.

Per-stream MMSE SINRs, the MMSE mutual information sum, and the optimal
(log-det) mutual information, all in nats, for every channel of a Monte
Carlo stack: one batched Cholesky of I + (rho/M) H^H H gives all three. The
column-deletion and trace-identity references live in the tests.
"""

import numpy as np

__all__ = [
    "gram",
    "receiver_values",
]


def gram(h: np.ndarray) -> np.ndarray:
    """H^H H over the last two axes of one channel or a stack of channels."""
    h = np.asarray(h, dtype=np.complex128)
    return np.swapaxes(h.conj(), -1, -2) @ h


def _tril_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular matrices (stacked), by forward substitution.

    Row i of X = L^{-1} is (e_i - L[i, :i] X[:i]) / L[i, i]. Each step is one
    stacked product, which for small M runs about twice as fast as a general
    LU inverse of the stack.
    """
    m = l.shape[-1]
    x = np.zeros_like(l)
    eye = np.eye(m)
    for i in range(m):
        row = eye[i] - (l[..., i:i + 1, :i] @ x[..., :i, :])[..., 0, :]
        x[..., i, :] = row / l[..., i, i, None]
    return x


def receiver_values(g: np.ndarray, rho: float):
    """(SINRs, MMSE MI, log-det MI) from Gram matrices g = H^H H.

    With A = I + (rho/M) g = L L^H (Cholesky, lower triangle read):
    log det A = 2 sum_k log L_kk, and [A^{-1}]_kk is the squared norm of
    column k of L^{-1}, giving gamma_k = 1 / [A^{-1}]_kk - 1, clipped at zero
    (it can round to -1e-16 for H = 0). g may carry leading stack axes; the
    results carry the same ones.
    """
    m = g.shape[-1]
    l = np.linalg.cholesky((rho / m) * g + np.eye(m))
    opt = 2.0 * np.log(np.diagonal(l, axis1=-2, axis2=-1).real).sum(axis=-1)
    l_inv = _tril_inverse(l)
    d = (l_inv.real**2 + l_inv.imag**2).sum(axis=-2)
    gam = np.maximum(1.0 / d - 1.0, 0.0)
    return gam, np.log1p(gam).sum(axis=-1), opt
