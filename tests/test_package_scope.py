"""The package holds what the verbs run.

Every plain function in a layer's __all__ is wrapped, in every module
namespace that holds it, the way perfbench/tracer.py times them; the four
verbs then run on an identity, an exponential and a file scenario. The
independent references the tests check against live in tests/oracles.py.
"""

import importlib
import inspect
import json

from mimo_asympt import build_exponential_correlation, save_correlation_json
from mimo_asympt.cli import main

LAYERS = ("scenario", "channel", "mmse", "asymptotics", "covariance", "gaussian", "montecarlo")

# run by no verb: perfbench/worker.py calls the first four, which
# tests/test_bench_contract.py pins, and the README documents the last as the
# writer of the correlation file format
NOT_RUN_BY_A_VERB = {"sinr_covariance", "sample_channel", "mmse_mi_gaussian",
                     "optimal_mi_gaussian", "save_correlation_json"}

CORRELATIONS = (
    {"type": "identity"},
    {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3},
    {"type": "file", "r_path": "r.json", "t_path": "t.json"},
)


def test_every_public_function_is_run_by_a_verb(tmp_path, monkeypatch):
    save_correlation_json(tmp_path / "r.json", build_exponential_correlation(6, 0.4))
    save_correlation_json(tmp_path / "t.json", build_exponential_correlation(3, 0.2))
    scenarios = []
    for i, correlation in enumerate(CORRELATIONS):
        path = tmp_path / f"scenario_{i}.json"
        path.write_text(json.dumps({"M": 3, "N": 6, "snr_db": 6.0, "rate_bpcu": 3.0,
                                    "correlation": correlation, "trials": 300, "seed": 23}))
        scenarios.append(path)

    layers = [importlib.import_module(f"mimo_asympt.{layer}") for layer in LAYERS]
    namespaces = layers + [importlib.import_module(name) for name in ("mimo_asympt",
                                                                      "mimo_asympt.cli")]
    public, called = set(), set()

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod in layers:
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            public.add(name)
            for ns in namespaces:
                if ns.__dict__.get(name) is fn:
                    monkeypatch.setattr(ns, name, recording(name, fn))

    for path in scenarios:
        for verb in ("asymptotics", "simulate", "compare", "outage"):
            out = tmp_path / f"{path.stem}_{verb}"
            assert main([verb, "--scenario", str(path), "--out", str(out)]) == 0
    assert sorted(public - called - NOT_RUN_BY_A_VERB) == []
    assert NOT_RUN_BY_A_VERB <= public
