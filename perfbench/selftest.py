"""Self-test of the benchmark, in well under a minute.

  python3 perfbench/selftest.py

1. Runs every workload at a reduced size, untraced and traced, and asserts
   that the outputs pass every check, that no verb call failed, and that
   every metric BENCHMARK.json lists is reported.
2. Corrupts a copy of each workload's outputs in one way per check (swapped
   CSV columns, an unsorted column, a perturbed gamma_bar, ...) and asserts
   that the check aimed at it rejects the copy.
3. Runs run.py in a directory that holds only BENCHMARK.json and the
   benchmark, and asserts that it fails without printing a result.

Exits 1 if anything is not as expected.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run

SEED = 7
FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _csv_edit(path, fn):
    with open(path, encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    header, data = fn(header, data)
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n" + "".join(",".join(f"{v:.12g}" for v in r) + "\n" for r in data))


def _json_edit(path, fn):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    fn(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)


def _swap_columns(header, d):
    return header, d[:, ::-1]


def _unsort(header, d):
    d = d.copy()
    d[[0, -1], 0] = d[[-1, 0], 0]
    return header, d


def _drop_row(header, d):
    return header, d[:-1]


def _col(j, fn):
    def edit(header, d):
        d = d.copy()
        d[:, j] = fn(d[:, j], d)
        return header, d
    return edit


def _rise(p, d):
    p = p.copy()
    p[-1] = p[0] + 0.01
    return p


def _opt_above(p, d):
    return d[:, 2] + 0.01


def _gauss_far(p, d):
    mc = d[:, 2]
    return np.where(mc < 0.5, mc + 0.5, mc - 0.5)


def _grid(fn):
    return lambda doc: fn(doc["grid"], doc)


def _scale_gamma(grid, doc):
    grid[0]["gamma_bar"][0] *= 1 + 1e-6


def _scale_opt(key):
    def edit(grid, doc):
        grid[0]["optimal"][key] *= 1 + 1e-6
    return edit


def _fall(grid, doc):
    grid[-1]["mmse"]["taylor"]["c1"] = grid[0]["mmse"]["taylor"]["c1"] - 1.0


def _opt_below(grid, doc):
    g = grid[0]
    g["optimal"]["c1"] = doc["M"] * g["mmse"]["taylor"]["c10"] - 1.0


def _neg_c2(grid, doc):
    grid[-1]["mmse"]["c2"] = -grid[-1]["mmse"]["c2"]


def _opt_mean_off(doc):
    doc["opt_mean"] *= 1.05


# workload -> (check name, which output dir, file, editor)
CORRUPTIONS = {
    "simulate-iid-m5": [
        ("samples.mmse_le_opt", "out1", "samples.csv", _swap_columns),
        ("samples.sorted", "out1", "samples.csv", _unsort),
        ("samples.rows", "out1", "samples.csv", _drop_row),
        ("summary.opt_mean_vs_large_system", "out1", "summary.json", _opt_mean_off),
        ("worker_count_identity", "out2", "summary.json", _opt_mean_off),
    ],
    "outage-corr-m16": [
        ("outage.mc_nonincreasing", "out1", "outage.csv", _col(2, _rise)),
        ("outage.opt_le_mmse", "out1", "outage.csv", _col(3, _opt_above)),
        ("outage.wilson_halfwidth", "out1", "outage.csv", _col(4, lambda p, d: p * 1.01)),
        ("outage.gauss_vs_mc", "out1", "outage.csv", _col(1, _gauss_far)),
    ],
    "asymptotics-corr-m32": [
        ("asymptotics.gamma_bar_vs_kronecker", "out1", "asymptotics.json", _grid(_scale_gamma)),
        ("asymptotics.optimal.c1_vs_kronecker", "out1", "asymptotics.json",
         _grid(_scale_opt("c1"))),
        ("asymptotics.optimal.c2_vs_kronecker", "out1", "asymptotics.json",
         _grid(_scale_opt("c2"))),
        ("asymptotics.c1_rising", "out1", "asymptotics.json", _grid(_fall)),
        ("asymptotics.opt_ge_mmse_leading", "out1", "asymptotics.json", _grid(_opt_below)),
        ("asymptotics.mmse_c2_positive", "out1", "asymptotics.json", _grid(_neg_c2)),
    ],
}


def run_small(name, trace, run_dir):
    res = run.run_workload(name, SEED, 1.0, trace, run_dir, small=True)
    table = run._metric_table(trace)
    expect(res["correct"] and res["failed"] == 0,
           f"{name} trace={trace}: correct, no failed call {[c for c in res['checks'] if c[1]]}")
    missing = [m["name"] for m in table
               if not isinstance(res["values"].get(m["name"]), (int, float))
               or not math.isfinite(res["values"][m["name"]])]
    expect(not missing, f"{name} trace={trace}: every metric reported {missing}")
    return res


def corruptions(name, run_dir):
    wl = run.WORKLOADS[name]
    with open(os.path.join(run_dir, "scenario.json"), encoding="utf-8") as f:
        scenario = json.load(f)
    for check, which, fname, edit in CORRUPTIONS[name]:
        copy = tempfile.mkdtemp(dir=run_dir)
        for d in ("out1", "out2"):
            if os.path.isdir(os.path.join(run_dir, d)):
                shutil.copytree(os.path.join(run_dir, d), os.path.join(copy, d))
        path = os.path.join(copy, which, fname)
        (_json_edit if fname.endswith(".json") else _csv_edit)(path, edit)
        failed = {c for c, msg in wl.check(scenario, os.path.join(copy, "out1"),
                                           os.path.join(copy, "out2")) if msg}
        expect(check in failed, f"{name}: {check} rejects a corrupted {which}/{fname}")


def without_sources(base):
    bare = tempfile.mkdtemp(dir=base)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate-iid-m5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ run.py exits {proc.returncode} and prints no result")


def main():
    os.makedirs(run.OUT_BASE, exist_ok=True)
    base = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_BASE)
    try:
        for name in run.WORKLOADS:
            run_dir = tempfile.mkdtemp(dir=base)
            run_small(name, 0, run_dir)
            corruptions(name, run_dir)
            run_small(name, 1, tempfile.mkdtemp(dir=base))
        without_sources(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
