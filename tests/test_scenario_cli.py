import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mimo_asympt import (
    EmpiricalSummary,
    ScenarioError,
    build_exponential_correlation,
    load_scenario,
    save_correlation_json,
)
import mimo_asympt.montecarlo as mc
from mimo_asympt import asymptotics, cli, gaussian, scenario
from mimo_asympt.cli import main

LN2 = math.log(2.0)


def _write_scenario(tmp_path, name="scen.json", **overrides):
    doc = {
        "M": 3,
        "N": 6,
        "snr_db": 6.020599913279624,
        "rate_bpcu": 3.0,
        "correlation": {"type": "identity"},
        "trials": 2000,
        "seed": 2026,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_scenario_defaults(tmp_path):
    s = load_scenario(_write_scenario(tmp_path))
    assert s.m == 3 and s.n == 6
    assert s.mean_variant == "taylor"
    assert s.fd_step == 1e-3
    assert s.tolerance == 1e-12
    assert s.max_iter == 10000
    assert s.snr_db == (6.020599913279624,)


def test_scenario_rejects_unknown_keys(tmp_path):
    path = _write_scenario(tmp_path, extra_knob=1)
    with pytest.raises(ScenarioError):
        load_scenario(path)
    # a document that is not an object has no keys to check
    path.write_text("[3, 6]")
    with pytest.raises(ScenarioError, match="object"):
        load_scenario(path)
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


def test_scenario_rejects_bad_correlation(tmp_path):
    path = _write_scenario(tmp_path, correlation={"type": "exponential", "zeta_r": 0.5})
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path = _write_scenario(tmp_path, correlation={"type": "exponential",
                                                  "zeta_r": 0.5, "zeta_t": 1.0})
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path = _write_scenario(tmp_path, correlation={"type": "file", "r_path": "r.json",
                                                  "t_path": "t.json", "zeta_r": 0.5})
    with pytest.raises(ScenarioError, match="zeta_r"):
        load_scenario(path)
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


def test_scenario_rejects_beta_above_one(tmp_path):
    path = _write_scenario(tmp_path, M=6, N=3)
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_missing_file_exit_code(tmp_path):
    assert main(["asymptotics", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_scenario_file_correlation(tmp_path):
    r = np.eye(3)
    t = np.array([[1.0, 0.2], [0.2, 1.0]])
    save_correlation_json(tmp_path / "r.json", r)
    save_correlation_json(tmp_path / "t.json", t)
    path = _write_scenario(tmp_path, M=2, N=3,
                           correlation={"type": "file", "r_path": "r.json",
                                        "t_path": "t.json"})
    s = load_scenario(path)
    pair = s.build_pair()
    np.testing.assert_array_equal(pair.T.real, t)


def test_cmd_asymptotics_g_field(tmp_path):
    out = tmp_path / "out"
    code = main(["asymptotics", "--scenario", str(_write_scenario(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "asymptotics.json").read_text())
    row = rep["grid"][0]
    assert row["g"] == pytest.approx(4.70156, abs=1e-4)
    assert rep["trace_r"] == 6.0 and rep["trace_t"] == 3.0
    # bpcu display by default
    assert row["mmse"]["taylor"]["c1"] == pytest.approx(
        row["mmse"]["taylor"]["c10"] * 3 + row["mmse"]["taylor"]["c11"], rel=1e-9
    )


def test_cmd_asymptotics_zero_snr(tmp_path):
    out = tmp_path / "out"
    code = main(["asymptotics", "--scenario",
                 str(_write_scenario(tmp_path, snr_db=-120.0)), "--out", str(out)])
    assert code == 0
    row = json.loads((out / "asymptotics.json").read_text())["grid"][0]
    assert abs(row["mmse"]["taylor"]["c1"]) < 1e-6
    assert abs(row["mmse"]["c2"]) < 1e-6
    assert abs(row["optimal"]["c1"]) < 1e-6


def test_cmd_asymptotics_units_roundtrip(tmp_path):
    out_b = tmp_path / "bpcu"
    out_n = tmp_path / "nats"
    scen = _write_scenario(tmp_path)
    assert main(["asymptotics", "--scenario", str(scen), "--out", str(out_b)]) == 0
    assert main(["asymptotics", "--scenario", str(scen), "--out", str(out_n),
                 "--units", "nats"]) == 0
    b = json.loads((out_b / "asymptotics.json").read_text())["grid"][0]
    n = json.loads((out_n / "asymptotics.json").read_text())["grid"][0]
    assert b["mmse"]["taylor"]["c1"] == pytest.approx(n["mmse"]["taylor"]["c1"] / LN2,
                                                      rel=1e-12)
    assert b["mmse"]["c2"] == pytest.approx(n["mmse"]["c2"] / LN2**2, rel=1e-12)


def test_exit_code_3_on_forced_nonconvergence(tmp_path):
    path = _write_scenario(
        tmp_path, snr_db=40.0, max_iter=3,
        correlation={"type": "exponential", "zeta_r": 0.99, "zeta_t": 0.99},
    )
    assert main(["asymptotics", "--scenario", str(path), "--out",
                 str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("verb", ["asymptotics", "outage"])
def test_grid_solve_failure_names_the_first_failing_point(tmp_path, capsys, verb):
    # with max_iter=6 only 0 dB converges: the grid's one solve fails as a
    # whole, and the error still names the first point that fails alone
    path = _write_scenario(tmp_path, snr_db=[0.0, 20.0, 40.0], max_iter=6,
                           correlation={"type": "exponential", "zeta_r": 0.99, "zeta_t": 0.99})
    assert main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: at snr_db=20.0: fixed point")


def test_stability_failure_after_the_solve_names_its_point(tmp_path, monkeypatch, capsys):
    # a check made after the grid's solve fails at the second and third
    # points; the error names the second
    read = gaussian.mean_sinr_asymptotic

    def failing_above_10_db(pair, config, **kwargs):
        if config.rho > 10.0:
            raise asymptotics.StabilityViolation(f"forced at rho={config.rho}")
        return read(pair, config, **kwargs)

    monkeypatch.setattr(gaussian, "mean_sinr_asymptotic", failing_above_10_db)
    path = _write_scenario(tmp_path, snr_db=[6.0, 12.0, 18.0])
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: at snr_db=12.0: forced")


def test_cmd_simulate_single_row(tmp_path):
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, trials=1)
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "mi_nats,opt_nats"
    assert len(lines) == 2


def test_cmd_simulate_reproducible_bytes(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    path = _write_scenario(tmp_path, trials=500)
    assert main(["simulate", "--scenario", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(path), "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_asymptotics_cross_consistency(tmp_path):
    # M=5, N=10, 3 dB: sampled mean within 2% of the taylor c1
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, M=5, N=10, snr_db=3.0, trials=30_000)
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["asymptotics", "--scenario", str(path), "--out", str(out),
                 "--units", "nats"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "asymptotics.json").read_text())
    c1 = report["grid"][0]["mmse"]["taylor"]["c1"]
    assert abs(summary["mi_mean"] - c1) / c1 <= 0.02


def test_cmd_compare_columns(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, M=5, N=10, snr_db=3.0, trials=20_000)
    assert main(["compare", "--scenario", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "KS mmse:" in printed and "KS optimal:" in printed
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "mi_bpcu,cdf_mmse_analytic,cdf_mmse_empirical,cdf_opt_analytic,cdf_opt_empirical"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (200, 5)
    for col in range(5):
        assert np.all(np.diff(data[:, col]) >= -1e-12), f"column {col} not monotone"
    np.testing.assert_allclose(data[-1, 2], 1.0)
    np.testing.assert_allclose(data[-1, 4], 1.0)
    # analytic optimal CDF sits right of the analytic MMSE CDF
    assert np.all(data[:, 3] <= data[:, 1] + 1e-9)
    ks = float(printed.split("KS mmse:")[1].splitlines()[0])
    assert ks <= 0.03


def test_cmd_outage_high_snr(tmp_path):
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, M=2, N=2, snr_db=60.0, rate_bpcu=3.0,
                           trials=20_000)
    assert main(["outage", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "outage.csv").read_text().splitlines()
    assert lines[0] == "snr_db,pout_mmse_gauss,pout_mmse_mc,pout_opt_mc,ci_halfwidth"
    row = [float(v) for v in lines[1].split(",")]
    # Monte Carlo outage vanishes at 60 dB; the Gaussian column is known to
    # be unusable for beta = 1 at very high SNR (heavy SINR fluctuations)
    assert row[2] <= 1e-3
    assert row[3] <= 1e-3


def test_outage_grid_and_monotonicity(tmp_path):
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, M=2, N=4, snr_db=[6.0, 12.0, 18.0],
                           rate_bpcu=3.0, trials=20_000)
    assert main(["outage", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "outage.csv").read_text().splitlines()
    assert len(lines) == 4
    gauss = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert gauss[0] > gauss[1] > gauss[2]  # outage falls with SNR


def test_exit_code_4_on_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    scen = _write_scenario(tmp_path)
    # --out nested under a regular file cannot be created, even as root
    code = main(["asymptotics", "--scenario", str(scen),
                 "--out", str(blocker / "sub")])
    assert code == 4
    assert capsys.readouterr().err.startswith("I/O error: ")


def test_unit_conversion_roundtrip_at_emitted_precision():
    values = [0.3, 1.0, 2.0794415416798357, 6.52, 35.046, 123.456789, 1e-6]
    for x in values:
        rt = (x / cli.LN2) * cli.LN2
        assert f"{rt:.12g}" == f"{x:.12g}"
        rt2 = (x * cli.LN2) / cli.LN2
        assert f"{rt2:.12g}" == f"{x:.12g}"


def test_scenario_rejects_seed_of_64_bits_or_more(tmp_path):
    assert load_scenario(_write_scenario(tmp_path, seed=2**64 - 1)).seed == 2**64 - 1
    path = _write_scenario(tmp_path, seed=2**64 + 5)
    with pytest.raises(ScenarioError):
        load_scenario(path)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_bad_thread_count_exit_code(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("MIMO_ASYMPT_THREADS", value)
    path = _write_scenario(tmp_path, trials=10)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("verb,snr_db", [("simulate", 6.0), ("compare", 6.0),
                                         ("outage", [0.0, 6.0, 12.0])])
def test_outputs_are_byte_identical_across_worker_counts(tmp_path, monkeypatch, capsys, verb,
                                                         snr_db):
    # 6000 trials are two batches, which one worker runs in turn and two at once
    path = _write_scenario(tmp_path, M=4, N=8, snr_db=snr_db, trials=6000,
                           correlation={"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3})
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MIMO_ASYMPT_THREADS", workers)
        out = tmp_path / f"out{workers}"
        assert main([verb, "--scenario", str(path), "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert runs[0][1] and runs[0] == runs[1]


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError("synthetic")

    monkeypatch.setattr(mc, "_batch_stats", boom)
    path = _write_scenario(tmp_path, trials=10)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and "completed 0 trials" in err


# one value outside its rule for every scenario key and correlation sub-key
_BAD_VALUES = {
    "M": 0, "N": 2.0, "snr_db": [], "rate_bpcu": "3", "correlation": {"type": "toeplitz"},
    "trials": 0, "seed": -1, "mean_variant": "x", "fd_step": 0, "tolerance": 1e-2,
    "max_iter": True,
}
# more values outside a rule: a bool for an integer, zeros, a tolerance far past its bound
_MORE_BAD_VALUES = [("M", True), ("max_iter", 0), ("tolerance", 0), ("tolerance", 1e300)]
_BAD_CORRELATION_VALUES = {"zeta_r": 1.0, "zeta_t": -0.1, "r_path": 3, "t_path": None}
_GOOD_CORRELATIONS = {
    "exponential": {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3},
    "file": {"type": "file", "r_path": "r.json", "t_path": "t.json"},
}


def test_every_scenario_key_rejects_a_bad_value(tmp_path):
    # a key added to the table needs a bad value here too
    assert set(_BAD_VALUES) == set(scenario._KEYS)
    sub_keys = {key: kind for kind, rules in scenario._CORRELATIONS.items() for key in rules}
    assert set(_BAD_CORRELATION_VALUES) == set(sub_keys)
    cases = [(key, {key: value}) for key, value in [*_BAD_VALUES.items(), *_MORE_BAD_VALUES]]
    cases += [(key, {"correlation": {**_GOOD_CORRELATIONS[sub_keys[key]], key: value}})
              for key, value in _BAD_CORRELATION_VALUES.items()]
    for key, overrides in cases:
        path = _write_scenario(tmp_path, **overrides)
        with pytest.raises(ScenarioError, match=f"key '{key}'"):
            load_scenario(path)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


def test_cmd_compare_empirical_columns_on_full_summary(tmp_path, monkeypatch):
    # a summary holds one sample per trial; the empirical CDF columns
    # must climb to 1
    rng = np.random.default_rng(0)
    x = np.sort(rng.normal(2.5, 0.3, 4096))
    summary = EmpiricalSummary(
        mi_samples=x, opt_samples=x + 0.1, sinr_mean=np.zeros(3),
        sinr_cov=np.zeros((3, 3)), sinr_skew=np.zeros(3),
        mi_mean=2.5, mi_var=0.09, mi_skewness=0.0, opt_mean=2.6, opt_var=0.09,
        n_trials=len(x), master_seed=2026,
    )
    monkeypatch.setattr(cli, "run_trials", lambda spec: summary)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(_write_scenario(tmp_path)), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data[-1, 2] == 1.0
    assert data[-1, 4] == 1.0
    i = int(np.searchsorted(data[:, 0], np.median(x) / LN2))
    assert abs(data[i, 2] - 0.5) <= 0.02


def test_outage_mc_columns_never_rise_with_snr(tmp_path):
    # every grid point sees the same channels, and each SINR and the
    # log-det increase with rho, so both columns fall realization by realization
    out = tmp_path / "out"
    path = _write_scenario(tmp_path, M=3, N=3, snr_db=[8.0, 9.0, 10.0, 11.0, 12.0, 15.0],
                           rate_bpcu=3.0, trials=5000,
                           correlation={"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3})
    assert main(["outage", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "outage.csv").read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    p_mmse, p_opt = data[:, 2], data[:, 3]
    assert np.all(np.diff(p_mmse) <= 0) and np.all(np.diff(p_opt) <= 0)
    assert p_mmse[0] > p_mmse[-1]


def _file_scenario(tmp_path, r, t, **overrides):
    """A scenario whose correlations come from r.json and t.json (r or t may be raw text)."""
    for name, a in (("r.json", r), ("t.json", t)):
        if isinstance(a, str):
            (tmp_path / name).write_text(a)
        elif a is not None:
            save_correlation_json(tmp_path / name, a)
    doc = {"snr_db": 6.0, "rate_bpcu": 3.0, "trials": 100,
           "correlation": {"type": "file", "r_path": "r.json", "t_path": "t.json"}}
    doc.update(overrides)
    return _write_scenario(tmp_path, **doc)


@pytest.mark.parametrize("verb", ["asymptotics", "simulate", "outage"])
def test_correlation_file_size_mismatch_exit_code(tmp_path, capsys, verb):
    # R is 4x4 in an N = 16 scenario: refused before anything is computed
    path = _file_scenario(tmp_path, build_exponential_correlation(4, 0.5),
                          build_exponential_correlation(4, 0.3), M=4, N=16)
    out = tmp_path / "out"
    assert main([verb, "--scenario", str(path), "--out", str(out)]) == 2
    assert "r.json" in capsys.readouterr().err
    assert not (out / "asymptotics.json").exists()


@pytest.mark.parametrize("t", [np.array([[1.0, 2.0], [2.0, 1.0]]), "not json", None],
                         ids=["not-psd", "not-json", "missing"])
def test_bad_correlation_file_exit_code(tmp_path, capsys, t):
    path = _file_scenario(tmp_path, np.eye(3), t, M=2, N=3)
    with pytest.raises(ScenarioError, match="t.json"):
        load_scenario(path).build_pair()
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "t.json" in capsys.readouterr().err


@pytest.mark.parametrize("snr_db", [5000.0, -5000.0, [3.0, 5000.0],
                                    pytest.param(10**400, id="400-digit-int"),
                                    pytest.param([], id="empty")])
def test_snr_outside_float_range_exit_code(tmp_path, snr_db):
    path = _write_scenario(tmp_path, snr_db=snr_db)
    with pytest.raises(ScenarioError, match="snr_db"):
        load_scenario(path)
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key,value", [("M", 3.0), ("N", 6.0), ("trials", 2000.0),
                                       ("seed", 2026.0), ("max_iter", 10000.0)])
def test_float_valued_integer_exit_code(tmp_path, capsys, key, value):
    # 6.0 is a JSON number, not an integer: refused, never truncated or aliased
    path = _write_scenario(tmp_path, **{key: value})
    assert main(["compare", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and f"'{key}'" in err


@pytest.mark.parametrize("key,value", [("rate_bpcu", math.nan), ("rate_bpcu", math.inf),
                                       ("rate_bpcu", -math.inf), ("tolerance", math.nan),
                                       ("tolerance", math.inf), ("fd_step", math.nan),
                                       ("fd_step", math.inf)])
def test_non_finite_number_exit_code(tmp_path, key, value):
    # json.dumps writes NaN and Infinity, which json.load reads back as floats
    path = _write_scenario(tmp_path, **{key: value})
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)
    assert main(["outage", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("verb", ["simulate", "compare", "outage"])
def test_units_is_an_asymptotics_option_only(tmp_path, verb):
    path = _write_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--scenario", str(path), "--out", str(tmp_path / "out"), "--units", "nats"])
    assert exc.value.code == 2


def test_scenario_linear_snr_grid(tmp_path):
    s = load_scenario(_write_scenario(tmp_path, snr_db=[0.0, 10.0, -120.0]))
    assert s.rho == (1.0, 10.0, 10.0 ** -12.0)


@pytest.mark.parametrize("snr_db", [45.0, 60.0])
def test_asymptotics_converges_at_high_snr(tmp_path, snr_db):
    # t grows like sqrt(rho), so a fixed point that creeps up on the root
    # stalls above the absolute tolerance; Newton's method lands on it
    path = _write_scenario(tmp_path, snr_db=snr_db)
    assert main(["asymptotics", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    row = json.loads((tmp_path / "out" / "asymptotics.json").read_text())["grid"][0]
    assert row["gamma_bar"][0] == pytest.approx(row["g"], rel=1e-12)


def test_compare_fails_before_the_simulation(tmp_path, monkeypatch, capsys):
    def no_draw(spec):
        raise AssertionError("compare drew channels before building its models")

    monkeypatch.setattr(cli, "run_trials", no_draw)
    path = _write_scenario(tmp_path, M=4, N=8, snr_db=40.0, max_iter=3)
    assert main(["compare", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "snr_db=40.0" in capsys.readouterr().err


@pytest.mark.parametrize("verb,correlation,snr_db", [
    ("asymptotics", {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3}, [0.0, 6.0, 12.0]),
    ("asymptotics", {"type": "identity"}, [0.0, 6.0]),
    ("compare", {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3}, 6.0),
    ("compare", {"type": "identity"}, 6.0),
    ("outage", {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3}, [0.0, 6.0, 12.0]),
    ("outage", {"type": "identity"}, [0.0, 6.0]),
    ("asymptotics", {"type": "exponential", "zeta_r": 0.5, "zeta_t": 0.3}, [0.0, 30.0, 60.0]),
])
def test_one_fixed_point_solve_per_verb_call(tmp_path, monkeypatch, verb, correlation, snr_db):
    # one stacked solve serves the grid: per point, the undeformed lane that both
    # receivers' models read and, for a correlated pair, the covariance's M
    # deflated lanes, which converge at 60 dB too
    solve = asymptotics.solve_fixed_point
    calls = []

    def counting(pair, config, deformation=None, **kwargs):
        calls.append(deformation)
        return solve(pair, config, deformation, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mimo_asympt") and getattr(mod, "solve_fixed_point", None) is solve:
            monkeypatch.setattr(mod, "solve_fixed_point", counting)
    path = _write_scenario(tmp_path, M=8, N=16, snr_db=snr_db, correlation=correlation,
                           trials=64)
    assert main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    points = len(np.atleast_1d(snr_db))
    assert len(calls) == 1
    streams = [] if correlation["type"] == "identity" else list(range(8))
    np.testing.assert_array_equal(calls[0].index, np.tile([0] + streams, points))
    np.testing.assert_array_equal(calls[0].x, np.tile([1.0] + [0.0] * len(streams), points))


def test_cli_import_pulls_in_no_scipy():
    # the package runs on numpy and the standard library alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mimo_asympt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'jsonschema', 'referencing', 'rpds')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
