"""Gaussian approximation of the mutual information CDF vs simulation.

M = 5, N = 10 at 3 dB: builds the Gaussian model for both receivers,
simulates 50k channels, and prints quantile-level agreement plus the
Kolmogorov-Smirnov distances.
"""

from statistics import NormalDist

import numpy as np

from mimo_asympt import (
    CorrelationPair,
    SystemConfig,
    TrialBatchSpec,
    ks_distance,
    mmse_mi_gaussian,
    optimal_mi_gaussian,
    run_trials,
)

LN2 = np.log(2.0)

cfg = SystemConfig(M=5, N=10, rho=10 ** 0.3)
pair = CorrelationPair.identity(10, 5)

mmse = mmse_mi_gaussian(pair, cfg)           # taylor mean variant by default
mmse_printed = mmse_mi_gaussian(pair, cfg, variant="as-printed")
opt = optimal_mi_gaussian(pair, cfg)

spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=50_000, master_seed=2)
summary = run_trials(spec)

print("M = 5, N = 10, snr = 3 dB, 50k trials, everything in bpcu")
print(f"MMSE mean:    simulated {summary.mi_mean / LN2:8.4f}   "
      f"gaussian(taylor) {mmse.c1 / LN2:8.4f}   "
      f"gaussian(as-printed) {mmse_printed.c1 / LN2:8.4f}")
print(f"MMSE stdev:   simulated {np.sqrt(summary.mi_var) / LN2:8.4f}   "
      f"gaussian {np.sqrt(mmse.c2) / LN2:8.4f}")
print(f"optimal mean: simulated {summary.opt_mean / LN2:8.4f}   "
      f"gaussian {opt.c1 / LN2:8.4f}")
print()
print("The as-printed mean correction omits the log-expansion denominators and")
print("overshoots badly; the taylor variant is the default everywhere.")
print()

print(f"{'quantile':>9} {'sim mmse':>9} {'gauss mmse':>11} {'sim opt':>9} {'gauss opt':>10}")
n = summary.n_trials
for q in (0.01, 0.1, 0.5, 0.9, 0.99):
    sim_m = summary.mi_samples[int(q * n)] / LN2
    sim_o = summary.opt_samples[int(q * n)] / LN2
    z = NormalDist().inv_cdf(q)
    gm = (mmse.c1 + np.sqrt(mmse.c2) * z) / LN2
    go = (opt.c1 + np.sqrt(opt.c2) * z) / LN2
    print(f"{q:9.2f} {sim_m:9.4f} {gm:11.4f} {sim_o:9.4f} {go:10.4f}")

print()
print(f"KS distance, MMSE:    {ks_distance(summary, mmse):.4f}")
print(f"KS distance, optimal: {ks_distance(summary, opt):.4f}")
