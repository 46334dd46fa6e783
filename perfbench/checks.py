"""Output checks against computations made outside the program.

Nothing here imports mimo_asympt. The reference values come from this
file's own solve of the Kronecker deterministic equivalents (plain
substitution on the eigenvalues of R and T, then dense-matrix traces,
inverses and log-determinants), from Wilson's interval, and from properties
that every correct output has. No check compares against a stored copy of
an earlier output.

Each check function takes the scenario and the verb's output directory and
returns a list of (check name, failure message or None), so the self-test
can tell which check rejected a corrupted output.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

LN2 = math.log(2.0)
Z95 = 1.959963984540054

# W1: the sampled log-det mean must sit within this many standard errors
# of the large-system mean (after the finite-N allowance below).
OPT_MEAN_SE = 5.0
# W3: the program's fixed point, mean SINRs and log-det moments must agree
# with this file's own solve to this relative error.
KRONECKER_RTOL = 1e-8
# Printed outputs carry 12 significant digits (CSV) or repr floats (JSON).
CSV_RTOL = 1e-11


def exponential_correlation(n: int, zeta: float) -> np.ndarray:
    idx = np.arange(n)
    return zeta ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def kronecker_fixed_point(lam_r, lam_t, rho: float, m: int, tol: float = 1e-15,
                          max_iter: int = 100_000):
    """(t, r) of t = (1/M) sum sr l_r/(1 + sr r l_r), r = (1/M) sum sr l_t/(1 + sr t l_t)."""
    sr = math.sqrt(rho)
    t = r = 1.0
    for _ in range(max_iter):
        t_new = sr / m * float(np.sum(lam_r / (1.0 + sr * r * lam_r)))
        r_new = sr / m * float(np.sum(lam_t / (1.0 + sr * t_new * lam_t)))
        if abs(t_new - t) <= tol * t_new and abs(r_new - r) <= tol * r_new:
            return t_new, r_new
        t, r = t_new, r_new
    raise RuntimeError("reference fixed point did not converge")


def kronecker_stats(r_mat: np.ndarray, t_mat: np.ndarray, rho: float) -> dict:
    """Large-system statistics of H = R^{1/2} G T^{1/2} at SNR rho, in nats."""
    n, m = r_mat.shape[0], t_mat.shape[0]
    t, r = kronecker_fixed_point(np.linalg.eigvalsh(r_mat), np.linalg.eigvalsh(t_mat), rho, m)
    sr = math.sqrt(rho)
    a_t = np.eye(m) + sr * t * t_mat
    a_r = np.eye(n) + sr * r * r_mat
    inv_t = np.linalg.inv(a_t)
    inv_r = np.linalg.inv(a_r)
    gamma_bar = 1.0 / np.diagonal(inv_t) - 1.0
    phi_t = t_mat @ inv_t
    phi_r = r_mat @ inv_r
    m_t = rho / m * float(np.trace(phi_t @ phi_t))
    m_r = rho / m * float(np.trace(phi_r @ phi_r))
    return {
        "t": t,
        "r": r,
        "gamma_bar": gamma_bar,
        "mmse_leading": float(np.log1p(gamma_bar).sum()),
        "opt_c1": np.linalg.slogdet(a_t)[1] + np.linalg.slogdet(a_r)[1] - m * t * r,
        "opt_c2": -math.log1p(-m_t * m_r),
    }


def scenario_matrices(scenario: dict):
    c = scenario["correlation"]
    if c["type"] == "identity":
        return np.eye(scenario["N"]), np.eye(scenario["M"])
    return (exponential_correlation(scenario["N"], c["zeta_r"]),
            exponential_correlation(scenario["M"], c["zeta_t"]))


def snr_list(scenario: dict):
    v = scenario["snr_db"]
    return [float(v)] if isinstance(v, (int, float)) else [float(x) for x in v]


def wilson_halfwidth(p: float, n: int) -> float:
    z2 = Z95 * Z95
    return Z95 / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def output_hash(out_dir: str) -> str:
    """SHA-256 over the names and bytes of every file a verb wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _bytes(out_dir, name):
    with open(os.path.join(out_dir, name), "rb") as f:
        return f.read()


def _result(name, ok, detail):
    return (name, None if ok else detail)


def check_simulate(scenario: dict, out_dir: str, out_dir_w2: str):
    """W1: samples.csv and summary.json of the `simulate` verb."""
    n = scenario["trials"]
    header, data = _read_csv(os.path.join(out_dir, "samples.csv"))
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    mi, opt = data[:, 0], data[:, 1]
    res = [_result("samples.header", header == ["mi_nats", "opt_nats"], f"header {header}")]
    res.append(_result("samples.rows", len(data) == n and summary["n_trials"] == n,
                       f"{len(data)} rows, n_trials {summary['n_trials']}, want {n}"))
    ordered = bool(np.all(np.diff(mi) >= 0) and np.all(np.diff(opt) >= 0))
    res.append(_result("samples.sorted", ordered, "a sample column is not sorted ascending"))
    # Hadamard: sum_k -log [A^{-1}]_kk <= log det A trial by trial, so the
    # order statistics keep the order too.
    slack = CSV_RTOL * np.maximum(np.abs(opt), 1.0)
    bad = int(np.sum(mi > opt + slack))
    res.append(_result("samples.mmse_le_opt", bad == 0, f"{bad} rows with mi_nats > opt_nats"))

    r_mat, t_mat = scenario_matrices(scenario)
    rho = 10.0 ** (snr_list(scenario)[0] / 10.0)
    ref = kronecker_stats(r_mat, t_mat, rho)["opt_c1"]
    se = math.sqrt(summary["opt_var"] / n)
    # E[log det] sits above its deterministic equivalent by a finite-size
    # bias (about 0.5/N^2 at M5N10, see README); 1/N^2 caps it.
    tol = OPT_MEAN_SE * se + 1.0 / scenario["N"] ** 2
    gap = summary["opt_mean"] - ref
    res.append(_result("summary.opt_mean_vs_large_system", abs(gap) <= tol,
                       f"opt_mean {summary['opt_mean']:.6f} vs {ref:.6f}: "
                       f"gap {gap:.2e} > {tol:.2e}"))
    same = all(_bytes(out_dir, f) == _bytes(out_dir_w2, f)
               for f in ("summary.json", "samples.csv"))
    res.append(_result("worker_count_identity", same,
                       "summary.json or samples.csv differs between 1 and 2 workers"))
    return res


def check_outage(scenario: dict, out_dir: str):
    """W2: outage.csv of the `outage` verb."""
    n, m = scenario["trials"], scenario["M"]
    header, data = _read_csv(os.path.join(out_dir, "outage.csv"))
    res = [_result("outage.header",
                   header == ["snr_db", "pout_mmse_gauss", "pout_mmse_mc", "pout_opt_mc",
                              "ci_halfwidth"], f"header {header}")]
    want = snr_list(scenario)
    res.append(_result("outage.grid", len(data) == len(want)
                       and np.allclose(data[:, 0], want, rtol=CSV_RTOL, atol=0),
                       f"snr column {data[:, 0].tolist()} != {want}"))
    _, gauss, p_mmse, p_opt, hw = data.T
    # Every grid point reuses the same channel draws, and each SINR and the
    # log-det increase with rho, so both columns fall realisation by realisation.
    res.append(_result("outage.mc_nonincreasing",
                       bool(np.all(np.diff(p_mmse) <= 0) and np.all(np.diff(p_opt) <= 0)),
                       f"Monte Carlo outage rises with SNR: {p_mmse.tolist()} / {p_opt.tolist()}"))
    res.append(_result("outage.opt_le_mmse", bool(np.all(p_opt <= p_mmse)),
                       "pout_opt_mc > pout_mmse_mc on some row"))
    want_hw = np.array([max(wilson_halfwidth(a, n), wilson_halfwidth(b, n))
                        for a, b in zip(p_mmse, p_opt)])
    res.append(_result("outage.wilson_halfwidth",
                       bool(np.allclose(hw, want_hw, rtol=1e-10, atol=0)),
                       f"ci_halfwidth {hw.tolist()} != Wilson {want_hw.tolist()}"))
    # The Gaussian model's CDF error is O(1/M) (the skewness of I is O(1/M));
    # allow 1/M plus two Wilson 95% half-widths (about four standard errors).
    tol = 1.0 / m + 2.0 * hw
    gap = np.abs(gauss - p_mmse)
    res.append(_result("outage.gauss_vs_mc", bool(np.all(gap <= tol)),
                       f"|pout_mmse_gauss - pout_mmse_mc| = {gap.tolist()} > {tol.tolist()}"))
    return res


def check_asymptotics(scenario: dict, out_dir: str):
    """W3: asymptotics.json of the `asymptotics` verb."""
    with open(os.path.join(out_dir, "asymptotics.json"), encoding="utf-8") as f:
        report = json.load(f)
    conv = 1.0 if report["units"] == "nats" else 1.0 / LN2
    m = scenario["M"]
    grid = report["grid"]
    want = snr_list(scenario)
    res = [_result("asymptotics.grid", [g["snr_db"] for g in grid] == want,
                   f"grid {[g['snr_db'] for g in grid]} != {want}")]
    r_mat, t_mat = scenario_matrices(scenario)
    worst = {"gamma_bar": 0.0, "optimal.c1": 0.0, "optimal.c2": 0.0}
    for g in grid:
        ref = kronecker_stats(r_mat, t_mat, 10.0 ** (g["snr_db"] / 10.0))
        got = {"gamma_bar": np.array(g["gamma_bar"]), "optimal.c1": g["optimal"]["c1"] / conv,
               "optimal.c2": g["optimal"]["c2"] / conv**2}
        exp = {"gamma_bar": ref["gamma_bar"], "optimal.c1": ref["opt_c1"],
               "optimal.c2": ref["opt_c2"]}
        for key in worst:
            a, b = np.asarray(got[key], float), np.asarray(exp[key], float)
            err = float(np.max(np.abs(a - b) / np.abs(b))) if a.shape == b.shape else math.inf
            worst[key] = max(worst[key], err)
    for key, err in worst.items():
        res.append(_result(f"asymptotics.{key}_vs_kronecker", err <= KRONECKER_RTOL,
                           f"{key} relative error {err:.2e} > {KRONECKER_RTOL:.0e}"))
    rising = all(
        np.all(np.diff([g[a][b]["c1"] if b else g[a]["c1"] for g in grid]) > 0)
        for a, b in (("mmse", "taylor"), ("mmse", "as-printed"), ("optimal", None)))
    res.append(_result("asymptotics.c1_rising", bool(rising), "a c1 column does not rise with SNR"))
    # M*c10 = sum_k log(1 + gamma_bar_k) <= log det mean (Hadamard).
    le = all(g["optimal"]["c1"] >= m * g["mmse"]["taylor"]["c10"] * (1 - 1e-12) for g in grid)
    res.append(_result("asymptotics.opt_ge_mmse_leading", le, "optimal.c1 < M*c10 at a grid point"))
    res.append(_result("asymptotics.mmse_c2_positive", all(g["mmse"]["c2"] > 0 for g in grid),
                       "mmse.c2 <= 0 at a grid point"))
    return res
