"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Heavy Monte Carlo lives
here (total runtime a few minutes on a laptop-class machine).

Criterion 3 is known-red: the finite-difference covariance at finite M and
the i.i.d. closed forms differ by an intrinsic O(1/M) relative gap (~11% at
M = 8), while the stated tolerance is 1e-4. Monte Carlo sides with the
finite-difference values (sub-percent agreement at M = 8, where the closed
forms sit ~10% low), so the implementation is kept faithful and the
criterion is reported as failing. See the README numerical notes.
"""

import math

import numpy as np
import pytest

from mimo_asympt import (
    CorrelationPair,
    SystemConfig,
    TrialBatchSpec,
    empirical_outage,
    iid_closed_forms,
    ks_distance,
    mean_sinr_asymptotic,
    mmse_mi_gaussian,
    run_trials,
    sinr_covariance,
    solve_fixed_point,
    summary_to_json,
)
from oracles import sinr_exact, sinr_trace_identity

LN2 = math.log(2.0)


def _iid(m, n, rho):
    return CorrelationPair.identity(n, m), SystemConfig(M=m, N=n, rho=rho)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def halfbeta_rho4_runs():
    """1e6-trial runs at beta = 0.5, rho = 4, N in {8, 16, 32} (criteria 6, 7)."""
    out = {}
    for n in (8, 16, 32):
        m = n // 2
        pair, cfg = _iid(m, n, 4.0)
        spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=1_000_000,
                              master_seed=606)
        out[n] = run_trials(spec)
    return out


def test_criterion_1_derivative_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, min(n, 8) + 1))
        rho = float(10 ** rng.uniform(-1, 2))
        h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        gam = sinr_exact(h, rho)
        for k in range(m):
            ti = sinr_trace_identity(h, rho, k)
            worst = max(worst, abs(ti - gam[k]) / max(gam[k], 1e-300))
    ok = worst <= 1e-10
    assert _report(1, "derivative-identity", ok, f"max rel dev {worst:.2e} <= 1e-10")


def test_criterion_2_iid_fixed_point_oracle():
    worst = 0.0
    for beta in (0.25, 0.5, 1.0):
        for rho in (1.0, 10.0, 100.0):
            m = 8
            pair, cfg = _iid(m, int(round(m / beta)), rho)
            sol = solve_fixed_point(pair, cfg)
            g = iid_closed_forms(cfg).g
            worst = max(worst, abs(sol.t * np.sqrt(rho) - g))
    ok = worst <= 1e-10
    assert _report(2, "iid-fixed-point", ok, f"max |t*sqrt(rho) - g| = {worst:.2e} <= 1e-10")


def test_criterion_3_covariance_reduction():
    # As specified: finite-difference Sigma_11, Sigma_12 vs v_d/M, v_od/M^2
    # at relative 1e-4 for beta = 0.5, rho in {1, 4, 10}, M = 8.
    # Known spec defect: the closed forms are the M -> infinity coefficients;
    # the finite-M difference path differs from them by O(1/M) (~7-12% here)
    # and is the one Monte Carlo confirms. Reported honestly as FAIL.
    m = 8
    gaps = []
    for rho in (1.0, 4.0, 10.0):
        pair, cfg = _iid(m, 2 * m, rho)
        sig = sinr_covariance(pair, cfg).sigma
        cf = iid_closed_forms(cfg)
        gap_d = abs(sig[0, 0] - cf.v_d / m) / (cf.v_d / m)
        gap_o = abs(sig[0, 1] - cf.v_od / m**2) / abs(cf.v_od / m**2)
        gaps.append((rho, gap_d, gap_o))
    worst = max(max(g[1], g[2]) for g in gaps)
    detail = ", ".join(f"rho={g[0]}: diag {g[1]:.2e}, offdiag {g[2]:.2e}" for g in gaps)
    ok = worst <= 1e-4
    _report(3, "covariance-reduction", ok, detail + " vs tolerance 1e-4")
    assert ok, (
        "finite-M finite-difference covariance vs asymptotic closed forms: "
        f"{detail}; the gap is an intrinsic O(1/M) term (halves per doubling "
        "of M) and Monte Carlo matches the finite-difference values, not the "
        "closed forms. See README numerical notes."
    )


@pytest.mark.parametrize("snr_db,tol_mean,tol_var,tol_ks",
                         [(3.0, 0.02, 0.10, 0.03), (30.0, 0.05, 0.20, 0.06)])
def test_criterion_4_gaussian_fit(snr_db, tol_mean, tol_var, tol_ks):
    rho = 10 ** (snr_db / 10)
    details = []
    ok = True
    for m in (5, 10):
        pair, cfg = _iid(m, 2 * m, rho)
        spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=100_000,
                              master_seed=404)
        summary = run_trials(spec)
        model = mmse_mi_gaussian(pair, cfg, variant="taylor")
        rel_mean = abs(summary.mi_mean - model.c1) / model.c1
        rel_var = abs(summary.mi_var - model.c2) / model.c2
        ks = ks_distance(summary, model)
        details.append(f"M={m}: mean {rel_mean:.3%}, var {rel_var:.3%}, KS {ks:.4f}")
        ok = ok and rel_mean <= tol_mean and rel_var <= tol_var and ks <= tol_ks
    assert _report(4, f"gaussian-fit-{snr_db:g}dB", ok,
                   "; ".join(details) +
                   f" vs {tol_mean:.0%}/{tol_var:.0%}/{tol_ks}")


def test_criterion_5_outage_antenna_tradeoff():
    rate_nats = 3.0 * LN2
    rho = 10 ** 1.5
    outcomes = {}
    for m, n in ((2, 2), (2, 4), (3, 3)):
        pair, cfg = _iid(m, n, rho)
        spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=1_000_000,
                              master_seed=505)
        summary = run_trials(spec)
        outcomes[(m, n)] = (
            empirical_outage(summary, rate_nats, "mmse")[0],
            empirical_outage(summary, rate_nats, "optimal")[0],
        )
    p22_m, p22_o = outcomes[(2, 2)]
    p24_m, _ = outcomes[(2, 4)]
    p33_m, _ = outcomes[(3, 3)]
    ok = (p22_o <= 1e-3 < p22_m) and (p24_m <= 1e-3) and (p33_m <= 1e-3)
    assert _report(
        5, "fig1-outage-tradeoff", ok,
        f"2x2: opt {p22_o:.2e} <= 1e-3 < mmse {p22_m:.2e}; "
        f"2x4 mmse {p24_m:.2e} <= 1e-3; 3x3 mmse {p33_m:.2e} <= 1e-3",
    )


def test_criterion_6_one_over_n_correction(halfbeta_rho4_runs):
    errs = []
    for n in (8, 16, 32):
        m = n // 2
        pair, cfg = _iid(m, n, 4.0)
        ms = mean_sinr_asymptotic(pair, cfg)
        pred = float(ms.gamma_bar[0] + ms.delta_gamma[0])
        emp = float(halfbeta_rho4_runs[n].sinr_mean.mean())
        errs.append(abs(emp - pred))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = r1 >= 2.5 and r2 >= 2.5
    assert _report(
        6, "one-over-n-correction", ok,
        f"errors {errs[0]:.5f} -> {errs[1]:.5f} -> {errs[2]:.5f}, "
        f"decay ratios {r1:.2f}, {r2:.2f} >= 2.5",
    )


def test_criterion_7_gaussianity_witness(halfbeta_rho4_runs):
    s8 = abs(halfbeta_rho4_runs[8].mi_skewness)
    s32 = abs(halfbeta_rho4_runs[32].mi_skewness)
    ok = s32 < s8
    assert _report(7, "gaussianity-witness", ok,
                   f"|skew| N=8: {s8:.4f} > N=32: {s32:.4f}")


def test_criterion_8_logdet_variance():
    pair, cfg = _iid(16, 32, 4.0)
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=100_000, master_seed=808)
    summary = run_trials(spec)
    from oracles import logdet_joint_cumulant

    target = logdet_joint_cumulant(pair, cfg, 0, 0, 1.0, 1.0)
    rel = abs(summary.opt_var - target) / target
    ok = rel <= 0.10
    assert _report(8, "logdet-variance", ok,
                   f"MC {summary.opt_var:.5f} vs kernel {target:.5f} "
                   f"(~0.41552), rel {rel:.3%} <= 10%")


def test_criterion_9_worker_determinism():
    pair, cfg = _iid(5, 10, 10 ** 0.3)
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=100_000, master_seed=404)
    j1 = summary_to_json(run_trials(spec, n_workers=1), cfg)
    j8 = summary_to_json(run_trials(spec, n_workers=8), cfg)
    ok = j1 == j8
    assert _report(9, "worker-determinism", ok,
                   f"summary JSON byte-identical across 1 vs 8 workers: {ok}")
