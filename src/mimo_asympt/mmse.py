"""Exact finite-dimensional receiver quantities.

Per-stream MMSE SINRs, the MMSE mutual information sum, and the optimal
(log-det) mutual information, all in nats. One batched Cholesky path on the
Gram matrix H^H H serves single channels and Monte Carlo stacks alike. The
column-deletion and trace-identity forms are kept as references: they solve
with LU (np.linalg.solve), independent of the Cholesky path.
"""

import numpy as np

__all__ = [
    "gram",
    "receiver_values",
    "sinr_exact",
    "sinr_deflated",
    "sinr_trace_identity",
    "mutual_info_mmse",
    "mutual_info_optimal",
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


def sinr_exact(h: np.ndarray, rho: float) -> np.ndarray:
    """All M per-stream MMSE SINRs, gamma_k = 1 / [(I + (rho/M) H^H H)^{-1}]_kk - 1."""
    return receiver_values(gram(h), rho)[0]


def sinr_deflated(h: np.ndarray, rho: float) -> np.ndarray:
    """Reference SINRs via explicit column deletion.

    gamma_k = (rho/M) h_k^H (I + (rho/M) H_k H_k^H)^{-1} h_k with H_k the
    channel minus column k. One N x N solve per stream; kept as an
    independent check of sinr_exact.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape
    out = np.empty(m)
    for k in range(m):
        hk = np.delete(h, k, axis=1)
        b = np.eye(n) + (rho / m) * (hk @ hk.conj().T)
        out[k] = (rho / m) * (h[:, k].conj() @ np.linalg.solve(b, h[:, k])).real
    return out


def sinr_trace_identity(h: np.ndarray, rho: float, k: int) -> float:
    """SINR of stream k as Tr{[I + (rho/M) H J_k(0) H^H]^{-1} (rho/M) H d_k H^H}.

    J_k(0) zeroes column k, so the resolvent argument is the deflated Gram
    matrix; the trace collapses onto the quadratic form in h_k. Stream
    indices are 0-based.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape
    if not (0 <= k < m):
        raise IndexError(f"stream index {k} out of range for M={m}")
    hk_col = h[:, k]
    b = np.eye(n) + (rho / m) * (h @ h.conj().T - np.outer(hk_col, hk_col.conj()))
    return float((rho / m) * (hk_col.conj() @ np.linalg.solve(b, hk_col)).real)


def mutual_info_mmse(gammas: np.ndarray) -> float:
    """Sum of log(1 + gamma_k) over the parallel MMSE streams, in nats."""
    return float(np.log1p(np.asarray(gammas)).sum())


def mutual_info_optimal(h: np.ndarray, rho: float) -> float:
    """log det(I + (rho/M) H H^H) in nats, via Cholesky of the M x M Gram form."""
    return float(receiver_values(gram(h), rho)[2])
