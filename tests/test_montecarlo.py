import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mimo_asympt.montecarlo as mc
from mimo_asympt import gaussian
from mimo_asympt.channel import _block_rows
from mimo_asympt import (
    CorrelationPair,
    EmpiricalSummary,
    MonteCarloError,
    MutualInfoGaussian,
    SystemConfig,
    TrialBatchSpec,
    build_exponential_correlation,
    empirical_outage,
    ks_distance,
    run_trials,
    run_trials_grid,
    sample_channel,
    sinr_covariance,
    summary_to_json,
    write_samples_csv,
)
from oracles import mutual_info_mmse, mutual_info_optimal, sinr_exact


def _spec(m=3, n=6, rho=4.0, trials=2000, seed=123):
    cfg = SystemConfig(M=m, N=n, rho=rho)
    pair = CorrelationPair.identity(n, m)
    return TrialBatchSpec(config=cfg, pair=pair, n_trials=trials, master_seed=seed)


def test_single_trial_matches_direct_computation():
    spec = _spec(trials=1, seed=7)
    s = run_trials(spec)
    h = sample_channel(spec.pair, spec.config, 7, 0)
    gam = sinr_exact(h, spec.config.rho)
    assert s.mi_mean == pytest.approx(mutual_info_mmse(gam), rel=1e-12)
    assert s.opt_mean == pytest.approx(mutual_info_optimal(h, spec.config.rho), rel=1e-12)
    np.testing.assert_allclose(s.sinr_mean, gam, rtol=1e-12)


def test_worker_count_invariance():
    spec = _spec(trials=10000)
    s1 = run_trials(spec, n_workers=1)
    s8 = run_trials(spec, n_workers=8)
    assert np.array_equal(s1.mi_samples, s8.mi_samples)
    assert np.array_equal(s1.opt_samples, s8.opt_samples)
    assert np.array_equal(s1.sinr_cov, s8.sinr_cov)
    assert summary_to_json(s1) == summary_to_json(s8)


def test_env_var_worker_cap(monkeypatch):
    monkeypatch.setenv("MIMO_ASYMPT_THREADS", "2")
    assert mc._worker_count() == 2
    monkeypatch.setenv("MIMO_ASYMPT_THREADS", "0")
    assert mc._worker_count() >= 1
    assert mc._worker_count(requested=5) == 5


def test_per_sample_receiver_ordering():
    s = run_trials(_spec(trials=5000))
    assert np.all(s.opt_samples >= s.mi_samples - 1e-12)


def test_empirical_outage_edges():
    s = run_trials(_spec(trials=4000))
    p, _ = empirical_outage(s, s.mi_samples[0] - 1.0, "mmse")
    assert p == 0.0
    p, _ = empirical_outage(s, s.mi_samples[-1] + 1.0, "mmse")
    assert p == 1.0
    median = float(np.median(s.mi_samples))
    p, hw = empirical_outage(s, median, "mmse")
    assert abs(p - 0.5) <= 1.0 / s.n_trials + 1e-12
    assert 0 < hw < 0.05


def test_ks_distance_synthetic_gaussian():
    rng = np.random.default_rng(0)
    x = np.sort(rng.standard_normal(100_000))
    s = EmpiricalSummary(
        mi_samples=x, opt_samples=x, sinr_mean=np.zeros(1),
        sinr_cov=np.zeros((1, 1)), sinr_skew=np.zeros(1),
        mi_mean=0.0, mi_var=1.0, mi_skewness=0.0, opt_mean=0.0, opt_var=1.0,
        n_trials=100_000, master_seed=0,
    )
    model = MutualInfoGaussian(c1=0.0, c2=1.0, c10=0.0, c11=0.0,
                               receiver="mmse", variant="taylor")
    assert ks_distance(s, model) <= 0.01
    shifted = MutualInfoGaussian(c1=10.0, c2=1.0, c10=0.0, c11=0.0,
                                 receiver="mmse", variant="taylor")
    assert ks_distance(s, shifted) > 0.99


def _sorted_summary(x):
    return EmpiricalSummary(
        mi_samples=x, opt_samples=x[::-1].copy(), sinr_mean=np.zeros(1),
        sinr_cov=np.zeros((1, 1)), sinr_skew=np.zeros(1), mi_mean=0.0, mi_var=1.0,
        mi_skewness=0.0, opt_mean=0.0, opt_var=1.0, n_trials=len(x), master_seed=0,
    )


@pytest.mark.parametrize("n", [1, 4096, 10_007, 200_000])
def test_ks_distance_equals_the_whole_array_formula(n):
    # the chunked evaluation gives the bits of the one-shot formula
    x = np.sort(np.random.default_rng(n).standard_normal(n))
    model = MutualInfoGaussian(c1=0.1, c2=1.3, c10=0.0, c11=0.0, receiver="mmse")
    f = gaussian._normal_cdf((x - 0.1) / np.sqrt(1.3))
    expected = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
    assert ks_distance(_sorted_summary(x), model) == expected


def test_ks_distance_peak_memory():
    # bounded chunks: the samples are only read, never copied whole
    s = _sorted_summary(np.sort(np.random.default_rng(1).standard_normal(200_000)))
    model = MutualInfoGaussian(c1=0.0, c2=1.0, c10=0.0, c11=0.0, receiver="mmse")
    assert _peak_bytes(lambda: ks_distance(s, model)) / 200_000 <= 16


def _per_row_csv(summary, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("mi_nats,opt_nats\n")
        for a, b in zip(summary.mi_samples, summary.opt_samples):
            f.write(f"{a:.12g},{b:.12g}\n")


def _per_row_table_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" for v in row) + "\n")


def test_samples_csv_bytes_equal_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(8)
    x = np.concatenate(([0.0, 1e-300, 5e-324, 0.1, 1.0, 123456789.123456789, 1e300, np.inf],
                        rng.lognormal(0.0, 3.0, 2 * 4096 + 5)))
    s = _sorted_summary(np.sort(x))
    write_samples_csv(s, tmp_path / "blocks.csv")
    _per_row_csv(s, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert b"\n0,inf\n" in (tmp_path / "rows.csv").read_bytes()
    # a compare.csv / outage.csv shaped table: five columns, given as an array,
    # lists and a tuple, as the verbs pass them
    header = ["snr_db", "pout_mmse_gauss", "pout_mmse_mc", "pout_opt_mc", "ci_halfwidth"]
    columns = [np.linspace(-30.0, 30.0, 200)] + [rng.uniform(0.0, 1.0, 200).tolist()
                                                 for _ in range(3)]
    columns[1][:4] = [0.0, 5e-324, 1e300, np.inf]
    columns.append(tuple(rng.lognormal(-5.0, 3.0, 200)))
    mc._write_csv(tmp_path / "table.csv", header, columns)
    _per_row_table_csv(tmp_path / "table_rows.csv", header, zip(*columns))
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "table_rows.csv").read_bytes()
    assert b"\n-30,0," in (tmp_path / "table.csv").read_bytes()


def test_sinr_covariance_matches_montecarlo_diagonal():
    # spec-level invariant: empirical SINR covariance within 10% on the
    # diagonal at M=8, N=16, 1e6 trials (measured agreement is ~1%)
    cfg = SystemConfig(M=8, N=16, rho=4.0)
    pair = CorrelationPair.identity(16, 8)
    spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=1_000_000, master_seed=777)
    s = run_trials(spec)
    sigma = sinr_covariance(pair, cfg).sigma
    emp_diag = float(np.mean(np.diagonal(s.sinr_cov)))
    assert abs(emp_diag - sigma[0, 0]) / sigma[0, 0] <= 0.10


def test_skewness_decreases_with_size():
    # deterministic seeds; comparative claim only
    s8 = run_trials(_spec(m=4, n=8, trials=100_000, seed=99))
    s32 = run_trials(_spec(m=16, n=32, trials=100_000, seed=99))
    assert abs(s32.mi_skewness) < abs(s8.mi_skewness)


def test_summary_json_and_csv(tmp_path):
    spec = _spec(trials=50)
    s = run_trials(spec)
    js = summary_to_json(s, spec.config)
    import json

    doc = json.loads(js)
    assert doc["n_trials"] == 50
    assert doc["config"] == {"M": 3, "N": 6, "rho": 4.0}
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mi_nats,opt_nats"
    assert len(lines) == 51
    got = np.array([float(v.split(",")[0]) for v in lines[1:]])
    np.testing.assert_allclose(got, s.mi_samples, rtol=1e-11)


def test_resource_exhaustion_structured_error(monkeypatch):
    spec = _spec(trials=100)

    def boom(*args, **kwargs):
        raise MemoryError("synthetic")

    monkeypatch.setattr(mc, "_batch_stats", boom)
    with pytest.raises(MonteCarloError) as exc:
        run_trials(spec)
    assert exc.value.completed_trials == 0


def test_memory_error_while_summarizing_is_structured(monkeypatch):
    # the in-place sort of every point's samples runs after the last batch
    spec = _spec(trials=5000)

    def boom(*args, **kwargs):
        raise MemoryError("synthetic")

    monkeypatch.setattr(mc, "_summarize", boom)
    with pytest.raises(MonteCarloError) as exc:
        run_trials(spec, n_workers=2)
    assert exc.value.completed_trials == 5000


def test_memory_error_counts_only_returned_batches(monkeypatch):
    # the first batch returns, the second runs out of memory
    real_stats = mc._batch_stats

    def boom_from_second(spec, rhos, lo, hi, mi, opt):
        if lo >= 4096:
            raise MemoryError("synthetic")
        return real_stats(spec, rhos, lo, hi, mi, opt)

    monkeypatch.setattr(mc, "_batch_stats", boom_from_second)
    with pytest.raises(MonteCarloError) as exc:
        run_trials(_spec(trials=10_000), n_workers=1)
    assert exc.value.completed_trials == 4096


def test_impossible_trial_count_fails_before_any_batch():
    # 2**59 trials need 4 EiB of samples, more than any address space holds
    with pytest.raises(MonteCarloError) as exc:
        run_trials(_spec(trials=2**59), n_workers=1)
    assert exc.value.completed_trials == 0


def _peak_bytes(fn):
    fn()   # warm: caches and the pool's first threads are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_samples_held_once_per_point():
    # each point's two receivers take 16 B per trial; the batches write into
    # those arrays and the summary sorts them in place, with no copies
    spec = _spec(m=2, n=2, trials=200_000)
    assert _peak_bytes(lambda: run_trials(spec, n_workers=2)) / 200_000 <= 24


def test_large_channel_grid_peak_memory():
    # chunks sized from N·M keep the M16N32 working set small: the channels
    # of one 512-row chunk alone would take 4 MB
    pair = CorrelationPair(build_exponential_correlation(32, 0.5),
                           build_exponential_correlation(16, 0.3))
    spec = TrialBatchSpec(config=SystemConfig(M=16, N=32, rho=1.0), pair=pair,
                          n_trials=4096, master_seed=3)
    rhos = [10 ** (0.1 * db) for db in (9.0, 9.5, 10.0, 10.5, 11.0)]
    assert _peak_bytes(lambda: run_trials_grid(spec, rhos, n_workers=1)) <= 8e6


@pytest.mark.parametrize("m, n, zetas", [(5, 10, None), (16, 32, (0.5, 0.3))])
def test_chunk_rows_leave_every_output_unchanged(monkeypatch, m, n, zetas):
    pair = CorrelationPair.identity(n, m) if zetas is None else CorrelationPair(
        build_exponential_correlation(n, zetas[0]), build_exponential_correlation(m, zetas[1]))
    spec = TrialBatchSpec(config=SystemConfig(M=m, N=n, rho=1.0), pair=pair,
                          n_trials=4096 + 300, master_seed=17)
    rhos = [0.5, 8.0]
    ref = run_trials_grid(spec, rhos, n_workers=1)
    sizes = set()
    real_draw = mc._draw_channels

    def recording_draw(pair, master_seed, lo, hi):
        sizes.add(hi - lo)
        return real_draw(pair, master_seed, lo, hi)

    monkeypatch.setattr(mc, "_draw_channels", recording_draw)
    for rows in (1, 7, 64, 512):
        monkeypatch.setattr(mc, "_block_rows", lambda n, m, rows=rows: rows)
        for workers in (1, 2):
            sizes.clear()
            got = run_trials_grid(spec, rhos, n_workers=workers)
            assert max(sizes) == rows
            for a, b in zip(ref, got):
                assert summary_to_json(a) == summary_to_json(b)
                assert np.array_equal(a.mi_samples, b.mi_samples)
                assert np.array_equal(a.opt_samples, b.opt_samples)


def test_spec_validation():
    cfg = SystemConfig(M=2, N=4, rho=1.0)
    pair = CorrelationPair.identity(4, 2)
    with pytest.raises(ValueError):
        TrialBatchSpec(config=cfg, pair=pair, n_trials=0, master_seed=1)
    with pytest.raises(ValueError):
        TrialBatchSpec(config=cfg, pair=CorrelationPair.identity(3, 2),
                       n_trials=10, master_seed=1)


def test_seed_of_64_bits_or_more_rejected():
    cfg = SystemConfig(M=2, N=4, rho=1.0)
    pair = CorrelationPair.identity(4, 2)
    TrialBatchSpec(config=cfg, pair=pair, n_trials=10, master_seed=2**64 - 1)
    for seed in (2**64 + 5, 2**64, -1):
        with pytest.raises(ValueError):
            TrialBatchSpec(config=cfg, pair=pair, n_trials=10, master_seed=seed)


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_env_var_worker_cap_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("MIMO_ASYMPT_THREADS", value)
    with pytest.raises(mc.WorkerCountError):
        mc._worker_count()
    with pytest.raises(mc.WorkerCountError):
        run_trials(_spec(trials=10))


def test_grid_run_matches_single_point_runs():
    # two batches, the second ending mid-chunk, on correlated pairs; at M16N32
    # (the outage-corr-m16 shape) the grid stacks a 16x16 g2 over five points,
    # so the stacked reductions must keep every point's bits
    for m, n, trials, rhos in [(3, 6, 4096 + 700, [0.5, 2.0, 8.0]),
                               (16, 32, 4096 + 300, [10 ** (0.1 * db)
                                                     for db in (9.5, 10.0, 10.5, 11.0, 11.5)])]:
        cfg = SystemConfig(M=m, N=n, rho=1.0)
        pair = CorrelationPair(build_exponential_correlation(n, 0.5),
                               build_exponential_correlation(m, 0.3))
        spec = TrialBatchSpec(config=cfg, pair=pair, n_trials=trials, master_seed=11)
        grid = run_trials_grid(spec, rhos)
        assert len(grid) == len(rhos)
        for rho, summary in zip(rhos, grid):
            point = replace(spec, config=replace(cfg, rho=rho))
            single = run_trials(point)
            assert (summary_to_json(summary, point.config)
                    == summary_to_json(single, point.config))
            assert np.array_equal(summary.mi_samples, single.mi_samples)
            assert np.array_equal(summary.opt_samples, single.opt_samples)


def test_grid_run_rejects_bad_snr():
    with pytest.raises(ValueError):
        run_trials_grid(_spec(trials=10), [])
    with pytest.raises(ValueError):
        run_trials_grid(_spec(trials=10), [1.0, 0.0])


def test_every_trial_is_drawn_once(monkeypatch):
    drawn = np.zeros(10_000, dtype=int)
    real_draw = mc._draw_channels

    def counting_draw(pair, master_seed, lo, hi):
        drawn[lo:hi] += 1
        return real_draw(pair, master_seed, lo, hi)

    monkeypatch.setattr(mc, "_draw_channels", counting_draw)
    grid = run_trials_grid(_spec(trials=10_000), [1.0, 4.0], n_workers=2)
    # one pass serves both SNRs, and each keeps every trial's sample
    assert np.all(drawn == 1)
    assert all(len(s.mi_samples) == len(s.opt_samples) == 10_000 for s in grid)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (5, 10), (4, 20), (3, 7), (16, 32), (32, 64)])
def test_default_chunks_draw_no_row_twice(monkeypatch, m, n):
    # every default chunk starts on an edge of a Philox block, so the rows a
    # window drops before its start are never drawn
    k, starts = _block_rows(n, m), []
    real_draw = mc._draw_channels

    def recording_draw(pair, master_seed, lo, hi):
        starts.append(lo)
        return real_draw(pair, master_seed, lo, hi)

    monkeypatch.setattr(mc, "_draw_channels", recording_draw)
    run_trials_grid(_spec(m=m, n=n, trials=4096 + 300), [1.0], n_workers=1)
    assert starts and all(lo % k == 0 for lo in starts)
