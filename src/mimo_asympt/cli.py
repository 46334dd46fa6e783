"""Command-line entry point.

Four verbs, each reading a scenario JSON and writing data files into --out:

  asymptotics   pure asymptotic statistics per SNR grid point -> asymptotics.json
  simulate      Monte Carlo samples and summary -> samples.csv, summary.json
  compare       analytic vs empirical CDF curves -> compare.csv (prints KS)
  outage        Gaussian and empirical outage across the SNR grid -> outage.csv

Exit codes: 0 success, 2 scenario/config error (including a bad correlation
file or an SNR outside float range), 3 numerical failure
(non-convergence or stability violation, message names the grid point),
4 output I/O error, 5 resource error (the Monte Carlo run ran out of
memory; the message names the trials completed). Internal computations
are in nats; --units picks the display unit for asymptotics.json
(compare.csv is always bpcu, samples.csv always nats, as the column names
state).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .asymptotics import NonConvergence, StabilityViolation
from .covariance import iid_closed_forms
from .gaussian import mmse_mi_gaussian, mmse_mi_gaussian_grid, mmse_mi_mean, outage_probability
from .montecarlo import (
    MonteCarloError,
    TrialBatchSpec,
    WorkerCountError,
    _write_csv,
    empirical_outage,
    ks_distance,
    run_trials,
    run_trials_grid,
    summary_to_json,
    write_samples_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario

LN2 = math.log(2.0)


def _snr_grid(scenario: Scenario):
    """The (snr_db, rho) grid points."""
    if not scenario.snr_db:
        raise ScenarioError("scenario needs snr_db for this command")
    return list(zip(scenario.snr_db, scenario.rho))


def _models(scenario: Scenario, pair, variant: str):
    """The MMSE Gaussian model at every grid point, each with the optimal one as its .optimal.

    A failed grid solve is re-run point by point, so the error names the first failing point.
    """
    grid = _snr_grid(scenario)
    knobs = {"variant": variant, "tol": scenario.tolerance, "max_iter": scenario.max_iter}
    try:
        return mmse_mi_gaussian_grid(pair, scenario.config(grid[0][1]), scenario.rho, **knobs)
    except (NonConvergence, StabilityViolation):
        for snr_db, rho in grid:
            try:
                mmse_mi_gaussian(pair, scenario.config(rho), **knobs)
            except (NonConvergence, StabilityViolation) as exc:
                raise _GridPointFailure(f"at snr_db={snr_db}: {exc}") from exc
        raise


def cmd_asymptotics(scenario: Scenario, out_dir: str, units: str) -> int:
    pair = scenario.build_pair()
    conv = 1.0 if units == "nats" else 1.0 / LN2
    m = scenario.m
    rows = []
    for (snr_db, rho), model in zip(_snr_grid(scenario), _models(scenario, pair, "taylor")):
        ms, sig, opt = model.mean_sinr, model.sigma, model.optimal
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
            row.update(iid_closed_forms(scenario.config(rho))._asdict())
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
    _, rho = _single_point(scenario)
    pair = scenario.build_pair()
    # the models first, so a solver failure exits before the simulation
    mmse_model = _models(scenario, pair, scenario.mean_variant)[0]
    summary = run_trials(_spec(scenario, pair, rho))

    lo = min(summary.mi_samples[0], summary.opt_samples[0])
    hi = max(summary.mi_samples[-1], summary.opt_samples[-1])
    xs = np.linspace(lo, hi, 200)
    columns = [xs / LN2]
    for model, receiver in ((mmse_model, "mmse"), (mmse_model.optimal, "optimal")):
        columns.append([outage_probability(model, x) for x in xs])
        columns.append([empirical_outage(summary, x, receiver)[0] for x in xs])
    path = os.path.join(out_dir, "compare.csv")
    _write_csv(path, ["mi_bpcu", "cdf_mmse_analytic", "cdf_mmse_empirical",
                      "cdf_opt_analytic", "cdf_opt_empirical"], columns)
    ks_m = ks_distance(summary, mmse_model)
    ks_o = ks_distance(summary, mmse_model.optimal)
    print(f"wrote {path}")
    print(f"KS mmse: {ks_m:.6f}")
    print(f"KS optimal: {ks_o:.6f}")
    return 0


def cmd_outage(scenario: Scenario, out_dir: str) -> int:
    if not scenario.rate_bpcu or len(scenario.rate_bpcu) != 1:
        raise ScenarioError("outage needs a scalar rate_bpcu")
    rate_nats = scenario.rate_bpcu[0] * LN2
    pair = scenario.build_pair()
    grid = _snr_grid(scenario)
    # one draw of the channels serves every grid point
    spec = _spec(scenario, pair, scenario.rho[0])
    models = _models(scenario, pair, scenario.mean_variant)
    rows = []
    for (snr_db, _), model, summary in zip(grid, models, run_trials_grid(spec, scenario.rho)):
        p_mmse, hw_m = empirical_outage(summary, rate_nats, "mmse")
        p_opt, hw_o = empirical_outage(summary, rate_nats, "optimal")
        rows.append((snr_db, outage_probability(model, rate_nats), p_mmse, p_opt,
                     max(hw_m, hw_o)))
    path = os.path.join(out_dir, "outage.csv")
    _write_csv(path, ["snr_db", "pout_mmse_gauss", "pout_mmse_mc", "pout_opt_mc",
                      "ci_halfwidth"], list(zip(*rows)))
    print(f"wrote {path}")
    return 0


class _GridPointFailure(Exception):
    """A solver failure at one SNR grid point; the message names the point."""


# the exit-code contract of the module docstring: the first row whose class
# matches gives the code and the stderr prefix
_FAILURES = (
    (ScenarioError, 2, "scenario error"),
    (WorkerCountError, 2, "configuration error"),
    (_GridPointFailure, 3, "numerical failure"),
    (OSError, 4, "I/O error"),
    (MonteCarloError, 5, "resource error"),
)

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
    except tuple(cls for cls, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in _FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
