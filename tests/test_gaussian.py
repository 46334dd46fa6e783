from dataclasses import replace

import numpy as np
import pytest

from mimo_asympt import (
    CorrelationPair,
    MutualInfoGaussian,
    SinrCovariance,
    SystemConfig,
    build_exponential_correlation,
    iid_closed_forms,
    mean_sinr_asymptotic,
    mmse_mi_gaussian,
    mmse_mi_gaussian_grid,
    mmse_mi_mean,
    mmse_mi_variance,
    optimal_mi_gaussian,
    outage_probability,
    sinr_covariance,
    sinr_covariance_exact,
)


def _iid(m, n, rho):
    return CorrelationPair.identity(n, m), SystemConfig(M=m, N=n, rho=rho)


def test_mean_zero_snr_both_variants():
    pair, cfg = _iid(4, 8, 1e-10)
    for variant in ("taylor", "as-printed"):
        model = mmse_mi_gaussian(pair, cfg, variant=variant)
        assert abs(model.c1) <= 1e-6
        assert model.c2 <= 1e-6


def test_variant_difference_is_subleading():
    # both variants share c10; their gap shrinks relative to c1 as M grows
    rel = []
    for m in (4, 8, 16, 32):
        pair, cfg = _iid(m, 2 * m, 4.0)
        a = mmse_mi_gaussian(pair, cfg, variant="taylor")
        b = mmse_mi_gaussian(pair, cfg, variant="as-printed")
        assert a.c10 == pytest.approx(b.c10, rel=1e-12)
        rel.append(abs(a.c1 - b.c1) / a.c1)
    assert rel[-1] < rel[0]
    assert all(x > y for x, y in zip(rel, rel[1:]))


def test_variance_iid_shortcut_large_m():
    # double sum over the asymptotic covariance vs (v_d + v_od)/(1+g)^2;
    # the off-diagonal count is M(M-1), so the as-stated equality is
    # asymptotic: test at M = 256 where the 1/M gap sits below 1e-3
    pair, cfg = _iid(256, 512, 4.0)
    model = mmse_mi_gaussian(pair, cfg)
    cf = iid_closed_forms(cfg)
    shortcut = (cf.v_d + cf.v_od) / (1 + cf.g) ** 2
    assert abs(model.c2 - shortcut) / shortcut <= 1e-3


def test_variance_positive_weights():
    pair = CorrelationPair(
        build_exponential_correlation(8, 0.5), build_exponential_correlation(4, 0.3)
    )
    cfg = SystemConfig(M=4, N=8, rho=4.0)
    ms = mean_sinr_asymptotic(pair, cfg)
    sigma = SinrCovariance(sigma=np.eye(4) * 0.1)
    c2 = mmse_mi_variance(ms, sigma)
    expect = float(np.sum(0.1 / (1 + ms.gamma_bar) ** 2))
    assert c2 == pytest.approx(expect, rel=1e-12)


def test_mean_variants_formulas():
    pair, cfg = _iid(4, 8, 4.0)
    ms = mean_sinr_asymptotic(pair, cfg)
    sigma = SinrCovariance(sigma=np.full((4, 4), 0.01) + np.eye(4) * 0.5)
    c1t, c10, c11t = mmse_mi_mean(ms, sigma, "taylor")
    c1p, _, c11p = mmse_mi_mean(ms, sigma, "as-printed")
    gb, dg = ms.gamma_bar, ms.delta_gamma
    skk = np.diagonal(sigma.sigma)
    assert c10 == pytest.approx(float(np.log1p(gb).mean()), rel=1e-14)
    assert c11t == pytest.approx(float(np.sum(dg / (1 + gb) - skk / (2 * (1 + gb) ** 2))))
    assert c11p == pytest.approx(float(np.sum(dg + skk)))
    assert c1t == pytest.approx(4 * c10 + c11t)
    assert c1p == pytest.approx(4 * c10 + c11p)
    with pytest.raises(ValueError):
        mmse_mi_mean(ms, sigma, "bogus")


def test_optimal_gaussian_zero_snr():
    pair, cfg = _iid(4, 8, 1e-12)
    model = optimal_mi_gaussian(pair, cfg)
    assert abs(model.c1) <= 1e-6
    assert model.c2 <= 1e-10


def test_optimal_gaussian_known_variance():
    pair, cfg = _iid(8, 16, 4.0)
    model = optimal_mi_gaussian(pair, cfg)
    assert model.c2 == pytest.approx(0.41552, abs=2e-5)
    mmse = mmse_mi_gaussian(pair, cfg)
    assert model.c1 > mmse.c1  # receiver ordering of the means


def test_outage_probability_table_values():
    model = MutualInfoGaussian(c1=2.0, c2=0.25, c10=0.5, c11=0.0, receiver="mmse",
                               variant="taylor")
    s = np.sqrt(model.c2)
    assert outage_probability(model, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert outage_probability(model, 2.0 + 2 * s) == pytest.approx(0.97725, abs=1e-5)
    assert outage_probability(model, 2.0 - 3 * s) == pytest.approx(1.3499e-3, rel=1e-3)


# Phi(z) to 20 digits, from mpmath.ncdf at 30-digit working precision
_NORMAL_CDF_REFERENCE = [
    (-37, 5.7255712225245768227e-300),
    (-20, 2.7536241186062336951e-89),
    (-10, 7.619853024160526066e-24),
    (-5, 2.8665157187919391167e-7),
    (-1, 0.15865525393145705141),
    (0, 0.5),
    (1, 0.84134474606854294859),
    (5, 0.99999971334842812081),
    (8, 0.9999999999999993779),
]


@pytest.mark.parametrize("z, phi", _NORMAL_CDF_REFERENCE)
def test_outage_probability_tails_and_centre(z, phi):
    model = MutualInfoGaussian(c1=0.0, c2=1.0, c10=0.0, c11=0.0, receiver="mmse",
                               variant="taylor")
    assert outage_probability(model, float(z)) == pytest.approx(phi, rel=1e-13, abs=0.0)


def test_outage_monotone_in_rate():
    model = MutualInfoGaussian(c1=5.0, c2=1.3, c10=1.0, c11=0.0, receiver="mmse",
                               variant="taylor")
    grid = np.linspace(0, 10, 101)
    vals = [outage_probability(model, r) for r in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_outage_degenerate_variance_is_step():
    model = MutualInfoGaussian(c1=1.0, c2=0.0, c10=1.0, c11=0.0, receiver="mmse",
                               variant="taylor")
    assert outage_probability(model, 0.5) == 0.0
    assert outage_probability(model, 1.0) == 0.5
    assert outage_probability(model, 1.5) == 1.0


def test_gaussian_outage_receiver_ordering():
    pair, cfg = _iid(5, 10, 10 ** 0.3)
    mmse = mmse_mi_gaussian(pair, cfg)
    opt = optimal_mi_gaussian(pair, cfg)
    for r in np.linspace(0.2 * mmse.c1, mmse.c1 + 2 * np.sqrt(mmse.c2), 25):
        assert outage_probability(opt, r) <= outage_probability(mmse, r) + 1e-9


def test_variance_stabilizes_in_m():
    # c2 depends on M only through vanishing corrections
    vals = []
    for m in (8, 16, 32, 64):
        pair, cfg = _iid(m, 2 * m, 4.0)
        vals.append(mmse_mi_gaussian(pair, cfg).c2)
    drifts = np.abs(np.diff(vals))
    assert drifts[1] < drifts[0] and drifts[2] < drifts[1]


def test_c10_saturates_under_self_similar_extension():
    # identity: c10 = log(1+g) exactly, size-independent
    vals = []
    for m in (4, 8, 16):
        pair, cfg = _iid(m, 2 * m, 4.0)
        vals.append(mmse_mi_gaussian(pair, cfg).c10)
    assert np.ptp(vals) <= 1e-10
    # exponential Toeplitz extension: per-stream mean converges
    vals = []
    for m in (8, 16, 32):
        pair = CorrelationPair(
            build_exponential_correlation(2 * m, 0.5),
            build_exponential_correlation(m, 0.5),
        )
        cfg = SystemConfig(M=m, N=2 * m, rho=4.0)
        vals.append(mmse_mi_gaussian(pair, cfg).c10)
    drifts = np.abs(np.diff(vals))
    assert drifts[1] < drifts[0]


def test_covariance_path_choice():
    # identity pair: the model is assembled from the closed forms
    pair, cfg = _iid(4, 8, 4.0)
    closed = mmse_mi_gaussian(pair, cfg)
    cf = iid_closed_forms(cfg)
    assert closed.sigma.method == "iid-closed-form"
    np.testing.assert_array_equal(np.diagonal(closed.sigma.sigma), cf.v_d / 4)
    assert closed.sigma.sigma[0, 1] == cf.v_od / 16
    assert closed.c2 == mmse_mi_variance(closed.mean_sinr, closed.sigma)
    # the stencil on the same pair: the finite-M difference path carries extra O(1/M)
    fd = sinr_covariance(pair, cfg)
    assert fd.method == "central-4pt"
    assert mmse_mi_variance(mean_sinr_asymptotic(pair, cfg), fd) > closed.c2
    # correlated pair: the model is assembled from the exact covariance
    corr = CorrelationPair(
        build_exponential_correlation(8, 0.5), build_exponential_correlation(4, 0.3)
    )
    model = mmse_mi_gaussian(corr, cfg)
    assert model.sigma.method == "implicit"
    np.testing.assert_array_equal(model.sigma.sigma, sinr_covariance_exact(corr, cfg).sigma)
    assert model.c2 == mmse_mi_variance(mean_sinr_asymptotic(corr, cfg), model.sigma)


def _drawn_psd(rng, size, rank=None, complex_=False):
    v = rng.standard_normal((size, rank or size))
    if complex_:
        v = v + 1j * rng.standard_normal(v.shape)
    a = v @ v.conj().T
    return a * (size / np.trace(a).real)


_GRID_PAIRS = {
    "identity": lambda rng: CorrelationPair.identity(7, 4),
    "exponential": lambda rng: CorrelationPair(build_exponential_correlation(7, 0.5),
                                               build_exponential_correlation(4, 0.3)),
    "complex-t": lambda rng: CorrelationPair(_drawn_psd(rng, 7), _drawn_psd(rng, 4, complex_=True)),
    "rank-deficient-t": lambda rng: CorrelationPair(_drawn_psd(rng, 7), _drawn_psd(rng, 4, rank=3)),
}


@pytest.mark.parametrize("variant", ["taylor", "as-printed"])
@pytest.mark.parametrize("kind", list(_GRID_PAIRS))
def test_grid_points_equal_one_point_calls(kind, variant):
    # one stacked solve over the grid gives, point by point, the bits of every
    # one-point call, at the default tolerance 1e-12
    pair = _GRID_PAIRS[kind](np.random.default_rng(11))
    cfg = SystemConfig(M=4, N=7, rho=1.0)
    rhos = [10.0 ** (db / 10.0) for db in (3.0, -120.0, 60.0, 30.0, 3.0)]
    grid = mmse_mi_gaussian_grid(pair, cfg, rhos, variant=variant)
    assert len(grid) == len(rhos)
    for model, rho in zip(grid, rhos):
        at = replace(cfg, rho=rho)
        one = mmse_mi_gaussian(pair, at, variant=variant)
        assert model == one   # c1, c2, c10, c11, receiver and variant
        assert model.optimal == one.optimal == optimal_mi_gaussian(pair, at)
        for ms in (one.mean_sinr, mean_sinr_asymptotic(pair, at)):
            np.testing.assert_array_equal(model.mean_sinr.gamma_bar, ms.gamma_bar)
            np.testing.assert_array_equal(model.mean_sinr.delta_gamma, ms.delta_gamma)
        np.testing.assert_array_equal(model.sigma.sigma, one.sigma.sigma)
        assert model.sigma.method == ("iid-closed-form" if kind == "identity" else "implicit")
        if kind != "identity":
            np.testing.assert_array_equal(model.sigma.sigma,
                                          sinr_covariance_exact(pair, at).sigma)
