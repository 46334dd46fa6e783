"""Child process of the benchmark: runs mimo_asympt in a fresh interpreter.

  worker.py setup <scenario.json>
      Times one fresh start: import the CLI, load the scenario, build the
      correlation pair and materialise its square roots and spectra.
      Prints the seconds.

  worker.py verbs <plan.json>
      Runs one warm-up verb call, then timed calls of the same verb with one
      Monte Carlo worker until the plan's seconds are used, then (when the
      plan names out2) one call with two workers. With "trace" set, every
      call runs under tracer.Tracer, each timed call is followed by a
      sample_channel probe, and the report carries per-layer metrics; layers
      the verb does not reach are timed by direct calls on the same
      scenario. Prints one JSON report.

run.py starts this file with PYTHONPATH pointing at the checkout's src/.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

from checks import output_hash

THREADS = "MIMO_ASYMPT_THREADS"
MIN_CALLS = 3
PAIR_REPS = 5
PROBE_DRAWS = 1024
PROBE_TRIALS = 8192  # two batches of 4096, so two workers each take one


def setup(scenario_path):
    t0 = time.perf_counter()
    import mimo_asympt.cli  # noqa: F401  (the import a verb call pays)
    from mimo_asympt.scenario import load_scenario

    _built_pair(load_scenario(scenario_path))
    print(time.perf_counter() - t0)


def _built_pair(scenario):
    """The scenario's pair with its lazily cached square roots and spectra computed."""
    pair = scenario.build_pair()
    for attr in ("r_sqrt", "t_sqrt", "r_eigvals", "t_eigvals"):
        getattr(pair, attr)
    return pair


class VerbRunner:
    def __init__(self, plan, tracer):
        from mimo_asympt import cli

        self.plan = plan
        self.cli = cli
        self.tracer = tracer

    def call(self, scenario, out, threads, phase):
        os.environ[THREADS] = str(threads)
        if self.tracer:
            self.tracer.phase = phase
        argv = [self.plan["verb"], "--scenario", scenario, "--out", out]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        wall = time.perf_counter() - t0
        return {"phase": phase, "rc": rc, "wall": wall,
                "hash": output_hash(out) if rc == 0 else None}


def verbs(plan_path):
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = VerbRunner(plan, tracer)
    draw_probe = _draw_probe(plan, tracer) if tracer else None
    warm = runner.call(plan["warm_scenario"], plan["warm_out"], 1, "warm")
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(runner.call(plan["scenario"], plan["out1"], 1, len(calls)))
        if draw_probe:
            # right after the call, so the draw and the call's run_trials
            # see the same machine speed in montecarlo.draw_share
            calls[-1]["draw_us"] = 1e6 * draw_probe()
        elapsed = time.perf_counter() - start
        if len(calls) >= MIN_CALLS and elapsed + calls[-1]["wall"] > plan["seconds"]:
            break
    w2 = runner.call(plan["scenario"], plan["out2"], 2, "w2") if plan["out2"] else None
    report = {
        "warm": warm,
        "calls": calls,
        "w2": w2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["layers"], report["probed"] = layer_metrics(plan, tracer, calls, w2)
    print(json.dumps(report))


def _draw_probe(plan, tracer):
    """A function timing one sample_channel on the scenario at its first SNR point."""
    from mimo_asympt.channel import sample_channel
    from mimo_asympt.scenario import load_scenario

    tracer.phase = "probe"
    sc = load_scenario(plan["scenario"])
    pair = _built_pair(sc)
    cfg = sc.config(10.0 ** (sc.snr_db[0] / 10.0))

    def probe():
        t0 = time.perf_counter()
        for i in range(PROBE_DRAWS):
            sample_channel.__wrapped__(pair, cfg, plan["seed"], i)
        return (time.perf_counter() - t0) / PROBE_DRAWS

    return probe


def _ms(spans):
    return 1e3 * sum(s.seconds for s in spans) / len(spans)


def _rate(spans, workers):
    spans = [s for s in spans if s.extra[1] == workers]
    return sum(s.extra[0] for s in spans) / sum(s.seconds for s in spans) if spans else None


# per-layer metric -> (value of the spans of one phase, functions it needs)
_SPAN_METRICS = {
    "scenario.load_ms": (lambda sp: _ms(sp("scenario.load_scenario")), "scenario.load_scenario"),
    "asymptotics.fixed_point_ms": (lambda sp: _ms(sp("asymptotics.solve_fixed_point")),
                                   "asymptotics.solve_fixed_point"),
    "asymptotics.fixed_point_iters": (
        lambda sp: sum(s.extra[0] for s in sp("asymptotics.solve_fixed_point")),
        "asymptotics.solve_fixed_point"),
    "asymptotics.mean_sinr_ms": (lambda sp: _ms(sp("asymptotics.mean_sinr_asymptotic")),
                                 "asymptotics.mean_sinr_asymptotic"),
    "covariance.sinr_cov_ms": (lambda sp: _ms(sp("covariance.sinr_covariance")),
                               "covariance.sinr_covariance"),
    "gaussian.mmse_model_ms": (lambda sp: _ms(sp("gaussian.mmse_mi_gaussian")),
                               "gaussian.mmse_mi_gaussian"),
    "gaussian.opt_model_ms": (lambda sp: _ms(sp("gaussian.optimal_mi_gaussian")),
                              "gaussian.optimal_mi_gaussian"),
    "montecarlo.write_ms": (
        lambda sp: 1e3 * sum(s.seconds for s in sp("montecarlo.write_samples_csv")
                             + sp("montecarlo.summary_to_json")),
        "montecarlo.write_samples_csv"),
    "montecarlo.trials_per_s_w1": (lambda sp: _rate(sp("montecarlo.run_trials"), 1),
                                   "montecarlo.run_trials"),
}


_ANALYTIC = {"asymptotics.solve_fixed_point", "asymptotics.mean_sinr_asymptotic",
             "covariance.sinr_covariance", "gaussian.mmse_mi_gaussian",
             "gaussian.optimal_mi_gaussian"}


def layer_metrics(plan, tracer, calls, w2):
    """Per-layer metrics: medians over the timed verb calls, or direct probes."""
    from mimo_asympt import covariance, gaussian, montecarlo
    from mimo_asympt.scenario import load_scenario

    def spans_of(phase):
        return lambda name: tracer.of(phase, name)

    tracer.phase = "probe"
    timed = [c["phase"] for c in calls]
    reached = {s.name for s in tracer.spans if s.phase == 0}
    out = {}
    probed = []

    # The pair and the draw are timed directly: the pair's factors are
    # built lazily inside other calls, and a wrapper on every per-trial
    # draw would cost more than the draw.
    sc = load_scenario(plan["scenario"])
    pair = _built_pair(sc)
    cfg = sc.config(10.0 ** (sc.snr_db[0] / 10.0))
    times = []
    for _ in range(PAIR_REPS):
        t0 = time.perf_counter()
        _built_pair(sc)
        times.append(time.perf_counter() - t0)
    out["channel.pair_ms"] = 1e3 * statistics.median(times)
    out["channel.draw_us"] = statistics.median(c["draw_us"] for c in calls)

    if not _ANALYTIC <= reached:
        knobs = {"tol": sc.tolerance, "max_iter": sc.max_iter}
        gaussian.mmse_mi_gaussian(pair, cfg, variant=sc.mean_variant, step=sc.fd_step, **knobs)
        gaussian.optimal_mi_gaussian(pair, cfg, **knobs)
        covariance.sinr_covariance(pair, cfg, step=sc.fd_step, **knobs)
    spec = montecarlo.TrialBatchSpec(config=cfg, pair=pair, n_trials=PROBE_TRIALS,
                                     master_seed=plan["seed"])
    if "montecarlo.run_trials" not in reached:
        montecarlo.run_trials(spec, n_workers=1)
    if w2 is None:
        montecarlo.run_trials(spec, n_workers=2)
    if "montecarlo.write_samples_csv" not in reached:
        montecarlo.write_samples_csv(tracer.last_summary,
                                     os.path.join(plan["warm_out"], "probe_samples.csv"))
        montecarlo.summary_to_json(tracer.last_summary, cfg)

    for name, (value, needs) in _SPAN_METRICS.items():
        if needs in reached:
            out[name] = statistics.median(value(spans_of(p)) for p in timed)
        else:
            out[name] = value(spans_of("probe"))
            probed.append(name)
    out["montecarlo.trials_per_s_w2"] = _rate(tracer.of("w2" if w2 else "probe",
                                                        "montecarlo.run_trials"), 2)
    if w2 is None:
        probed.append("montecarlo.trials_per_s_w2")
    if "montecarlo.run_trials" in reached:
        out["montecarlo.draw_share"] = statistics.median(
            c["draw_us"] * 1e-6 * _rate(tracer.of(c["phase"], "montecarlo.run_trials"), 1)
            for c in calls)
    else:
        out["montecarlo.draw_share"] = (out["channel.draw_us"] * 1e-6
                                        * out["montecarlo.trials_per_s_w1"])
    top = [sum(s.seconds for s in tracer.of(c["phase"]) if s.depth == 0) for c in calls]
    out["cli.self_ms"] = 1e3 * statistics.median(c["wall"] - t for c, t in zip(calls, top))
    out["cli.span_share"] = statistics.median(t / c["wall"] for c, t in zip(calls, top))
    return out, probed


if __name__ == "__main__":
    {"setup": setup, "verbs": verbs}[sys.argv[1]](sys.argv[2])
