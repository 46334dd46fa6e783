"""Benchmark of the mimo-asympt CLI verbs, end to end and per layer.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. The benchmark writes the workload's scenario from the seed,
times the program's set-up in fresh processes (worker.py setup), runs the
verb repeatedly in one fresh process (worker.py verbs), checks the outputs
against computations of its own (checks.py) and prints, as the last line of
standard output, one JSON object with keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list. Workloads, metrics and
tolerances are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_BASE = os.path.join(BENCH_DIR, "out")
SETUP_RUNS = 5
DEADLINE_S = 170.0


def _w1_scenario(rng, small):
    return {"M": 5, "N": 10, "snr_db": 3.0, "correlation": {"type": "identity"},
            "trials": 8192 if small else 49152, "seed": int(rng.integers(0, 2**63))}


def _w2_scenario(rng, small):
    m, n, half = (4, 8, 1) if small else (16, 32, 2)
    corr = {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3}
    center = round(10.0 + float(rng.uniform(-0.25, 0.25)), 2)
    scen = {"M": m, "N": n, "correlation": corr,
            "snr_db": [round(center + 0.5 * k, 2) for k in range(-half, half + 1)]}
    # The rate is the leading-order MMSE mean at the centre point, so the
    # outage falls from near 1 to near 0 across the grid.
    r_mat, t_mat = checks.scenario_matrices(scen)
    lead = checks.kronecker_stats(r_mat, t_mat, 10.0 ** (center / 10.0))["mmse_leading"]
    scen["rate_bpcu"] = round(lead / checks.LN2, 2)
    scen["trials"] = 1024 if small else 4096
    scen["seed"] = int(rng.integers(0, 2**63))
    return scen


def _w3_scenario(rng, small):
    m, n, points = (8, 16, 3) if small else (32, 64, 8)
    offset = round(float(rng.uniform(0.0, 0.5)), 2)
    return {"M": m, "N": n, "correlation": {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3},
            "snr_db": [offset + 3.0 * k for k in range(points)]}


@dataclass(frozen=True)
class Workload:
    verb: str
    scenario: Callable
    two_workers: bool  # also run the verb once with two workers (W1's identity check)

    def check(self, scenario, out1, out2):
        if self.verb == "simulate":
            return checks.check_simulate(scenario, out1, out2)
        if self.verb == "outage":
            return checks.check_outage(scenario, out1)
        return checks.check_asymptotics(scenario, out1)


WORKLOADS = {
    "simulate-iid-m5": Workload("simulate", _w1_scenario, True),
    "outage-corr-m16": Workload("outage", _w2_scenario, False),
    "asymptotics-corr-m32": Workload("asymptotics", _w3_scenario, False),
}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


def _child(args, deadline):
    """Run worker.py in a fresh interpreter on the checkout's src/; return its last line."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def run_workload(name, seed, seconds, trace, run_dir, small=False):
    """One benchmark run in run_dir; returns the result object (and the details)."""
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[name]
    scenario = wl.scenario(np.random.default_rng(seed), small)
    warm = dict(scenario, snr_db=checks.snr_list(scenario)[0])
    if "trials" in warm:
        warm["trials"] = min(warm["trials"], 4096)
    paths = {k: os.path.join(run_dir, k) for k in ("scenario.json", "warm.json", "plan.json",
                                                   "out1", "out2", "warm_out")}
    _write_json(paths["scenario.json"], scenario)
    _write_json(paths["warm.json"], warm)

    setup = [] if trace else [float(_child(["setup", paths["scenario.json"]], deadline))
                              for _ in range(SETUP_RUNS)]
    _write_json(paths["plan.json"], {
        "verb": wl.verb, "scenario": paths["scenario.json"], "warm_scenario": paths["warm.json"],
        "out1": paths["out1"], "out2": paths["out2"] if wl.two_workers else None,
        "warm_out": paths["warm_out"], "seconds": seconds, "trace": bool(trace),
        "seed": seed,
    })
    report = json.loads(_child(["verbs", paths["plan.json"]], deadline))

    ops = [report["warm"], *report["calls"]] + ([report["w2"]] if report["w2"] else [])
    failed = sum(op["rc"] != 0 for op in ops)
    ok_calls = [c for c in report["calls"] if c["rc"] == 0]
    if not ok_calls:
        raise RuntimeError("every timed verb call failed")
    results = [("outputs_repeat", None if len({c["hash"] for c in ok_calls}) == 1
                else "outputs differ between repeated calls")]
    try:
        results += wl.check(scenario, paths["out1"], paths["out2"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        results.append(("outputs_readable", f"{type(exc).__name__}: {exc}"))

    wall = statistics.median(c["wall"] for c in ok_calls)
    if trace:
        values = report["layers"]
    else:
        values = {
            "wall_s": wall,
            "points_per_s": len(checks.snr_list(scenario)) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    return {
        "correct": all(msg is None for _, msg in results),
        "attempted": len(ops),
        "failed": failed,
        "values": values,
        "checks": results,
        "report": report,
    }


def _metric_table(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mimo_asympt", "cli.py")):
        print(f"no mimo_asympt sources under {SRC}", file=sys.stderr)
        return 2
    table = _metric_table(args.trace)

    os.makedirs(OUT_BASE, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_BASE)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for check, msg in res["checks"]:
        if msg is not None:
            print(f"check failed: {check}: {msg}", file=sys.stderr)
    if args.trace:
        print(f"probed directly: {', '.join(res['report']['probed'])}", file=sys.stderr)
    metrics = {}
    for m in table:
        v = res["values"][m["name"]]
        if v is None or not math.isfinite(v):
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
