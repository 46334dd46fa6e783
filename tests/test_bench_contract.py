"""The library names and call shapes the benchmark under perfbench/ relies on.

perfbench/tracer.py times a layer by wrapping every plain function listed
in that module's __all__ (and Scenario.build_pair); perfbench/worker.py
then calls the functions below by name and keyword. A rename, a dropped
keyword or a function that leaves __all__ breaks every `--trace 1` run
without failing any other test, so each is pinned here.
"""

import importlib
import inspect

import numpy as np
import pytest

from mimo_asympt import cli
from mimo_asympt.asymptotics import Deformation, solve_fixed_point
from mimo_asympt.channel import sample_channel
from mimo_asympt.covariance import sinr_covariance
from mimo_asympt.gaussian import mmse_mi_gaussian, optimal_mi_gaussian
from mimo_asympt.montecarlo import (
    TrialBatchSpec,
    run_trials,
    summary_to_json,
    write_samples_csv,
)
from mimo_asympt.scenario import Scenario, load_scenario

LAYERS = ("scenario", "channel", "mmse", "asymptotics", "covariance", "gaussian", "montecarlo")

# (layer, function) pairs whose spans feed a per-layer metric or a probe
TRACED = [
    ("scenario", "load_scenario"),
    ("channel", "sample_channel"),
    ("asymptotics", "solve_fixed_point"),
    ("asymptotics", "mean_sinr_asymptotic"),
    ("covariance", "sinr_covariance"),
    ("gaussian", "mmse_mi_gaussian"),
    ("gaussian", "optimal_mi_gaussian"),
    ("montecarlo", "run_trials"),
    ("montecarlo", "write_samples_csv"),
    ("montecarlo", "summary_to_json"),
]


def test_every_layer_exports_what_it_lists():
    for layer in LAYERS:
        mod = importlib.import_module(f"mimo_asympt.{layer}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{layer}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_function_is_a_listed_plain_function(layer, name):
    mod = importlib.import_module(f"mimo_asympt.{layer}")
    assert name in mod.__all__
    assert inspect.isfunction(getattr(mod, name))


def test_worker_calls_by_name_and_keyword(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"M": 2, "N": 4, "snr_db": [3.0, 9.0], "rate_bpcu": 2.0, "trials": 64,'
                    ' "seed": 5, "correlation": {"type": "exponential", "zeta_r": 0.5,'
                    ' "zeta_t": 0.3}}')
    sc = load_scenario(str(path))
    assert inspect.isfunction(Scenario.build_pair)
    pair = sc.build_pair()
    for attr in ("r_sqrt", "t_sqrt", "r_eigvals", "t_eigvals"):
        getattr(pair, attr)
    cfg = sc.config(10.0 ** (sc.snr_db[0] / 10.0))
    knobs = {"tol": sc.tolerance, "max_iter": sc.max_iter}

    assert sample_channel(pair, cfg, 5, 0).shape == (4, 2)
    mmse_mi_gaussian(pair, cfg, variant=sc.mean_variant, step=sc.fd_step, **knobs)
    optimal_mi_gaussian(pair, cfg, **knobs)
    sinr_covariance(pair, cfg, step=sc.fd_step, **knobs)
    # the tracer sums .iterations over every call, the stacked ones included
    for deformation in (None, Deformation(np.arange(2), np.zeros(2))):
        iterations = solve_fixed_point(pair, cfg, deformation, **knobs).iterations
        assert type(iterations) is int and iterations >= 1

    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=64, master_seed=5)
    summary = run_trials(spec, n_workers=1)
    assert summary.n_trials == 64
    write_samples_csv(summary, str(tmp_path / "probe_samples.csv"))
    summary_to_json(summary, cfg)

    # the worker runs each verb as cli.main(argv) and reads the exit code
    for verb in ("outage", "asymptotics"):
        assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / verb)]) == 0
