"""Command-line entry point.

Four verbs, each reading a scenario JSON and writing data files into --out:

  asymptotics   pure asymptotic statistics per SNR grid point -> asymptotics.json
  simulate      Monte Carlo samples and summary -> samples.csv, summary.json
  compare       analytic vs empirical CDF curves -> compare.csv (prints KS)
  outage        Gaussian and empirical outage across the SNR grid -> outage.csv

Exit codes: 0 success, 2 scenario/config error (including a bad correlation
file or an SNR outside float range), 3 numerical failure
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

from .asymptotics import NonConvergence, StabilityViolation
from .covariance import iid_closed_forms
from .gaussian import mmse_mi_gaussian, mmse_mi_mean, optimal_mi_gaussian, outage_probability
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


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _snr_grid(scenario: Scenario):
    """The (snr_db, rho) grid points."""
    if not scenario.snr_db:
        raise ScenarioError("scenario needs snr_db for this command")
    return list(zip(scenario.snr_db, scenario.rho))


def _models(scenario: Scenario, pair, snr_db: float, rho: float, variant: str,
            optimal: bool = True):
    """The MMSE (and optimal) Gaussian models at one grid point.

    A solver failure is re-raised as a _GridPointFailure naming the point.
    """
    config = scenario.config(rho)
    knobs = {"tol": scenario.tolerance, "max_iter": scenario.max_iter}
    try:
        mmse = mmse_mi_gaussian(pair, config, variant=variant, **knobs)
        return mmse, optimal_mi_gaussian(pair, config, **knobs) if optimal else None
    except (NonConvergence, StabilityViolation) as exc:
        raise _GridPointFailure(f"at snr_db={snr_db}: {exc}") from exc


def cmd_asymptotics(scenario: Scenario, out_dir: str, units: str) -> int:
    pair = scenario.build_pair()
    conv = 1.0 if units == "nats" else 1.0 / LN2
    m = scenario.m
    rows = []
    for snr_db, rho in _snr_grid(scenario):
        model, opt = _models(scenario, pair, snr_db, rho, "taylor")
        ms, sig = model.mean_sinr, model.sigma
        c1_p, _, c11_p = mmse_mi_mean(ms, sig, "as-printed")
        off = sig.sigma[~np.eye(m, dtype=bool)]
        row = {
            "snr_db": snr_db,
            "rho": rho,
            "gamma_bar": ms.gamma_bar.tolist(),
            "delta_gamma": ms.delta_gamma.tolist(),
            "sigma": {
                "diag_mean": float(np.diagonal(sig.sigma).mean()),
                "offdiag_mean": float(off.mean()) if m > 1 else 0.0,
                "method": sig.method,
            },
            "mmse": {
                "taylor": {"c1": model.c1 * conv, "c10": model.c10 * conv,
                           "c11": model.c11 * conv},
                "as-printed": {"c1": c1_p * conv, "c10": model.c10 * conv, "c11": c11_p * conv},
                "c2": model.c2 * conv * conv,
            },
            "optimal": {"c1": opt.c1 * conv, "c2": opt.c2 * conv * conv},
        }
        if pair.is_identity:
            cf = iid_closed_forms(scenario.config(rho))
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


def _spec(scenario: Scenario, pair, rho: float) -> TrialBatchSpec:
    if scenario.trials is None or scenario.seed is None:
        raise ScenarioError("scenario needs 'trials' and 'seed' for simulation commands")
    return TrialBatchSpec(config=scenario.config(rho), pair=pair, n_trials=scenario.trials,
                          master_seed=scenario.seed)


def _single_point(scenario: Scenario):
    grid = _snr_grid(scenario)
    if len(grid) != 1:
        raise ScenarioError("this command needs a scalar snr_db")
    return grid[0]


def cmd_simulate(scenario: Scenario, out_dir: str) -> int:
    _, rho = _single_point(scenario)
    spec = _spec(scenario, scenario.build_pair(), rho)
    summary = run_trials(spec)
    csv_path = os.path.join(out_dir, "samples.csv")
    json_path = os.path.join(out_dir, "summary.json")
    write_samples_csv(summary, csv_path)
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(summary_to_json(summary, spec.config))
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_compare(scenario: Scenario, out_dir: str) -> int:
    snr_db, rho = _single_point(scenario)
    pair = scenario.build_pair()
    # the models first, so a solver failure exits before the simulation
    mmse_model, opt_model = _models(scenario, pair, snr_db, rho, scenario.mean_variant)
    summary = run_trials(_spec(scenario, pair, rho))

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


def cmd_outage(scenario: Scenario, out_dir: str) -> int:
    if not scenario.rate_bpcu or len(scenario.rate_bpcu) != 1:
        raise ScenarioError("outage needs a scalar rate_bpcu")
    rate_nats = bits_to_nats(scenario.rate_bpcu[0])
    pair = scenario.build_pair()
    grid = _snr_grid(scenario)
    # one draw of the channels serves every grid point
    spec = _spec(scenario, pair, scenario.rho[0])
    p_gauss = [outage_probability(_models(scenario, pair, snr_db, rho, scenario.mean_variant,
                                          optimal=False)[0], rate_nats)
               for snr_db, rho in grid]
    rows = []
    for (snr_db, _), p_g, summary in zip(grid, p_gauss, run_trials_grid(spec, scenario.rho)):
        p_mmse, hw_m = empirical_outage(summary, rate_nats, "mmse")
        p_opt, hw_o = empirical_outage(summary, rate_nats, "optimal")
        rows.append((snr_db, p_g, p_mmse, p_opt, max(hw_m, hw_o)))
    path = os.path.join(out_dir, "outage.csv")
    _write_csv(path, ["snr_db", "pout_mmse_gauss", "pout_mmse_mc", "pout_opt_mc",
                      "ci_halfwidth"], rows)
    print(f"wrote {path}")
    return 0


class _GridPointFailure(Exception):
    """A solver failure at one SNR grid point; the message names the point."""


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
        if name == "asymptotics":
            p.add_argument("--units", choices=["nats", "bpcu"], default="bpcu")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        os.makedirs(args.out, exist_ok=True)
        units = {"units": args.units} if args.command == "asymptotics" else {}
        return _COMMANDS[args.command](scenario, args.out, **units)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except WorkerCountError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _GridPointFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
