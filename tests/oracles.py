"""Independent references that the tests check the package against.

None of these is run by a CLI verb. The per-realization SINR forms solve with
LU (np.linalg.solve), independent of the package's batched Cholesky path;
psd_sqrt and logdet_joint_cumulant read the package's one eigh and one
cumulant kernel for a single matrix or stream pair, and
test_joint_cumulant_matches_dense_traces checks that kernel against dense
resolvent traces.
"""

import numpy as np

from mimo_asympt.asymptotics import Deformation, solve_fixed_point
from mimo_asympt.channel import _psd_factors
from mimo_asympt.covariance import _kernel
from mimo_asympt.mmse import gram, receiver_values


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


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition (clipped as in _psd_factors)."""
    return _psd_factors("matrix", np.asarray(a))[2]


def logdet_joint_cumulant(pair, config, k: int, l: int, x_k: float, x_l: float,
                          tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Joint second cumulant of the log-dets deformed at streams k and l.

    Symmetric under swapping (k, x_k) with (l, x_l). At k = l with
    x_k = x_l = 1 (no deformation) this is the asymptotic variance of the
    optimal-receiver mutual information.
    """
    sol = solve_fixed_point(pair, config, Deformation(np.array([k, l]), np.array([x_k, x_l])),
                            tol=tol, max_iter=max_iter)
    return float(_kernel(sol, [0], [1], pair, config)[0, 0])
