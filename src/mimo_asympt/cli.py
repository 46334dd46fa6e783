"""Command-line entry point.

Four verbs, each reading a scenario JSON and writing data files into --out:

  asymptotics   pure asymptotic statistics per SNR grid point -> asymptotics.json
  simulate      Monte Carlo samples and summary -> samples.csv, summary.json
  compare       analytic vs empirical CDF curves -> compare.csv (prints KS)
  outage        Gaussian and empirical outage across the SNR grid -> outage.csv

Exit codes: 0 success, 2 scenario/config error, 3 numerical failure
(non-convergence or stability violation, message names the grid point),
4 output I/O error. Internal computations are in nats; --units picks the
display unit for asymptotics.json (compare.csv is always bpcu, samples.csv
always nats, as the column names state).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .asymptotics import NonConvergence, StabilityViolation, mean_sinr_asymptotic
from .covariance import SinrCovariance, StepTooLarge, iid_closed_forms, sinr_covariance
from .gaussian import (
    _closed_form_sigma,
    mmse_mi_gaussian,
    mmse_mi_mean,
    mmse_mi_variance,
    optimal_mi_gaussian,
    outage_probability,
)
from .montecarlo import (
    TrialBatchSpec,
    WorkerCountError,
    empirical_outage,
    ks_distance,
    run_trials,
    run_trials_grid,
    summary_to_json,
    write_samples_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario

LN2 = math.log(2.0)

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4


def nats_to_bits(x: float) -> float:
    return x / LN2


def bits_to_nats(x: float) -> float:
    return x * LN2


def _fmt(x) -> str:
    return f"{x:.12g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _snr_grid(scenario: Scenario):
    if not scenario.snr_db:
        raise ScenarioError("scenario needs snr_db for this command")
    return scenario.snr_db


def _sigma_used(pair, scenario, config) -> SinrCovariance:
    """Covariance fed to the Gaussian assembly, mirroring mmse_mi_gaussian."""
    if pair.is_identity:
        return _closed_form_sigma(config)
    return sinr_covariance(pair, config, step=scenario.fd_step,
                           tol=scenario.tolerance, max_iter=scenario.max_iter)


def cmd_asymptotics(scenario: Scenario, out_dir: str, units: str) -> int:
    pair = scenario.build_pair()
    conv = 1.0 if units == "nats" else 1.0 / LN2
    rows = []
    for snr_db in _snr_grid(scenario):
        rho = 10.0 ** (snr_db / 10.0)
        config = scenario.config(rho)
        try:
            ms = mean_sinr_asymptotic(pair, config, tol=scenario.tolerance,
                                      max_iter=scenario.max_iter)
            sig = _sigma_used(pair, scenario, config)
            sigma = sig.sigma
            c1_t, c10, c11_t = mmse_mi_mean(ms, sig, "taylor")
            c1_p, _, c11_p = mmse_mi_mean(ms, sig, "as-printed")
            c2 = mmse_mi_variance(ms, sig)
            opt = optimal_mi_gaussian(pair, config, tol=scenario.tolerance,
                                      max_iter=scenario.max_iter)
        except (NonConvergence, StabilityViolation, StepTooLarge) as exc:
            raise _GridPointFailure(snr_db, exc) from exc
        m = config.M
        off = sigma[~np.eye(m, dtype=bool)]
        row = {
            "snr_db": snr_db,
            "rho": rho,
            "gamma_bar": ms.gamma_bar.tolist(),
            "delta_gamma": ms.delta_gamma.tolist(),
            "sigma": {
                "diag_mean": float(np.diagonal(sigma).mean()),
                "offdiag_mean": float(off.mean()) if m > 1 else 0.0,
                "method": sig.method,
            },
            "mmse": {
                "taylor": {"c1": c1_t * conv, "c10": c10 * conv, "c11": c11_t * conv},
                "as-printed": {"c1": c1_p * conv, "c10": c10 * conv, "c11": c11_p * conv},
                "c2": c2 * conv * conv,
            },
            "optimal": {"c1": opt.c1 * conv, "c2": opt.c2 * conv * conv},
        }
        if pair.is_identity:
            cf = iid_closed_forms(config)
            row["g"] = cf.g
            row["v_d"] = cf.v_d
            row["v_od"] = cf.v_od
        rows.append(row)
    report = {
        "units": units,
        "M": scenario.m,
        "N": scenario.n,
        "correlation": scenario.correlation,
        "trace_r": float(np.trace(pair.R).real),
        "trace_t": float(np.trace(pair.T).real),
        "mean_variant_default": scenario.mean_variant,
        "grid": rows,
    }
    path = os.path.join(out_dir, "asymptotics.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, sort_keys=True, indent=2)
    print(f"wrote {path}")
    return 0


def _simulate_summary(scenario: Scenario, rho: float):
    if scenario.trials is None or scenario.seed is None:
        raise ScenarioError("scenario needs 'trials' and 'seed' for simulation commands")
    pair = scenario.build_pair()
    config = scenario.config(rho)
    spec = TrialBatchSpec(config=config, pair=pair, n_trials=scenario.trials,
                          master_seed=scenario.seed)
    return pair, config, run_trials(spec)


def _single_rho(scenario: Scenario) -> float:
    grid = _snr_grid(scenario)
    if len(grid) != 1:
        raise ScenarioError("this command needs a scalar snr_db")
    return 10.0 ** (grid[0] / 10.0)


def cmd_simulate(scenario: Scenario, out_dir: str, units: str) -> int:
    rho = _single_rho(scenario)
    _, config, summary = _simulate_summary(scenario, rho)
    csv_path = os.path.join(out_dir, "samples.csv")
    json_path = os.path.join(out_dir, "summary.json")
    write_samples_csv(summary, csv_path)
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(summary_to_json(summary, config))
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_compare(scenario: Scenario, out_dir: str, units: str) -> int:
    rho = _single_rho(scenario)
    pair, config, summary = _simulate_summary(scenario, rho)
    snr_db = scenario.snr_db[0]
    try:
        mmse_model = mmse_mi_gaussian(pair, config, variant=scenario.mean_variant,
                                      step=scenario.fd_step, tol=scenario.tolerance,
                                      max_iter=scenario.max_iter)
        opt_model = optimal_mi_gaussian(pair, config, tol=scenario.tolerance,
                                        max_iter=scenario.max_iter)
    except (NonConvergence, StabilityViolation, StepTooLarge) as exc:
        raise _GridPointFailure(snr_db, exc) from exc

    lo = min(summary.mi_samples[0], summary.opt_samples[0])
    hi = max(summary.mi_samples[-1], summary.opt_samples[-1])
    rows = []
    for x in np.linspace(lo, hi, 200):
        rows.append((
            nats_to_bits(x),
            outage_probability(mmse_model, x),
            empirical_outage(summary, x, "mmse")[0],
            outage_probability(opt_model, x),
            empirical_outage(summary, x, "optimal")[0],
        ))
    path = os.path.join(out_dir, "compare.csv")
    _write_csv(path, ["mi_bpcu", "cdf_mmse_analytic", "cdf_mmse_empirical",
                      "cdf_opt_analytic", "cdf_opt_empirical"], rows)
    ks_m = ks_distance(summary, mmse_model)
    ks_o = ks_distance(summary, opt_model)
    print(f"wrote {path}")
    print(f"KS mmse: {ks_m:.6f}")
    print(f"KS optimal: {ks_o:.6f}")
    return 0


def cmd_outage(scenario: Scenario, out_dir: str, units: str) -> int:
    if not scenario.rate_bpcu or len(scenario.rate_bpcu) != 1:
        raise ScenarioError("outage needs a scalar rate_bpcu")
    if scenario.trials is None or scenario.seed is None:
        raise ScenarioError("scenario needs 'trials' and 'seed' for simulation commands")
    rate_nats = bits_to_nats(scenario.rate_bpcu[0])
    pair = scenario.build_pair()
    grid = _snr_grid(scenario)
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    p_gauss = []
    for snr_db, rho in zip(grid, rhos):
        try:
            model = mmse_mi_gaussian(pair, scenario.config(rho), variant=scenario.mean_variant,
                                     step=scenario.fd_step, tol=scenario.tolerance,
                                     max_iter=scenario.max_iter)
        except (NonConvergence, StabilityViolation, StepTooLarge) as exc:
            raise _GridPointFailure(snr_db, exc) from exc
        p_gauss.append(outage_probability(model, rate_nats))
    # one draw of the channels serves every grid point
    spec = TrialBatchSpec(config=scenario.config(rhos[0]), pair=pair,
                          n_trials=scenario.trials, master_seed=scenario.seed)
    rows = []
    for snr_db, p_g, summary in zip(grid, p_gauss, run_trials_grid(spec, rhos)):
        p_mmse, hw_m = empirical_outage(summary, rate_nats, "mmse")
        p_opt, hw_o = empirical_outage(summary, rate_nats, "optimal")
        rows.append((snr_db, p_g, p_mmse, p_opt, max(hw_m, hw_o)))
    path = os.path.join(out_dir, "outage.csv")
    _write_csv(path, ["snr_db", "pout_mmse_gauss", "pout_mmse_mc", "pout_opt_mc",
                      "ci_halfwidth"], rows)
    print(f"wrote {path}")
    return 0


class _GridPointFailure(Exception):
    def __init__(self, snr_db, cause):
        self.snr_db = snr_db
        self.cause = cause
        super().__init__(f"at snr_db={snr_db}: {cause}")


_COMMANDS = {
    "asymptotics": cmd_asymptotics,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "outage": cmd_outage,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo-asympt",
        description="Asymptotic and Monte Carlo statistics of MMSE MIMO mutual information",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--units", choices=["nats", "bpcu"], default="bpcu")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return _EXIT_IO
    try:
        return _COMMANDS[args.command](scenario, args.out, args.units)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except WorkerCountError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _GridPointFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (NonConvergence, StabilityViolation, StepTooLarge) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
