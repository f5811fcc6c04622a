import numpy as np
import pytest

from tritherm.errorlab import (
    MonteCarloReport,
    MonteCarloSpec,
    RepeatedStats,
    _fit_slope,
    repeated_measurement_stats,
    slope_bias_study,
    temperature_discrepancy,
)
from tritherm.thermometry import COEFFICIENTS, DegenerateDataError

seed = 20260312

ANCHOR = (6.74, 13.14)

# OLS slope attenuation for a sinusoidal design: Sxx / (Sxx + sigma^2) with
# Sxx = span^2 / 2
SPAN = 0.042
ATTEN = (SPAN ** 2 / 2.0) / (SPAN ** 2 / 2.0 + 0.002 ** 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        MonteCarloSpec(true_slope=0.5, n_experiments=50)
    with pytest.raises(ValueError):
        MonteCarloSpec(true_slope=0.5, x_span=0.0)
    with pytest.raises(ValueError):
        MonteCarloSpec(true_slope=0.5, abscissa="random")
    with pytest.raises(ValueError):
        MonteCarloSpec(true_slope=0.5, fit_method="huber")


def test_least_squares_fit_rejects_single_valued_x():
    # the variance of np.full(50, 0.1) rounds to ~1e-33, not to zero
    ys = np.random.default_rng(seed).normal(size=50)
    with pytest.raises(DegenerateDataError):
        _fit_slope(np.full(50, 0.1), ys, "least_squares")


def test_slope_bias_study_rejects_bad_grid():
    spec = MonteCarloSpec(true_slope=0.5, n_experiments=100, seed=seed)
    for grid in ([], [0.5, 0.5], [1.0, 0.01]):
        with pytest.raises(ValueError, match="lambda grid"):
            slope_bias_study(spec, grid)


def test_design_points():
    spec = MonteCarloSpec(true_slope=0.5, x_span=0.042, n_points=700)
    x = spec.design_points()
    assert len(x) == 700
    assert np.max(np.abs(x)) <= 0.042 + 1e-15
    # sinusoid: mean square = span^2 / 2
    assert abs(np.mean(x ** 2) - 0.042 ** 2 / 2.0) < 0.05 * 0.042 ** 2
    u = MonteCarloSpec(true_slope=0.5, abscissa="uniform").design_points()
    assert abs(np.mean(u ** 2) - 0.042 ** 2 / 3.0) < 0.05 * 0.042 ** 2


def test_noiseless_study_is_exact():
    spec = MonteCarloSpec(true_slope=0.8834, noise_sigma=0.0,
                          n_experiments=100, seed=seed)
    report = slope_bias_study(spec)
    assert abs(report.mean_fit[0] - 0.8834) < 1e-12
    assert abs(report.ci_high[0] - report.ci_low[0]) < 1e-12
    assert report.n_failures == 0


def test_least_squares_attenuates_below_truth(bias_report):
    lam = 0.8834
    fitted = bias_report.fitted_slope_at(lam)
    assert fitted < lam
    # CI of the mean at the nearest grid nodes sits entirely below truth
    idx = np.argmin(np.abs(bias_report.lambda_grid - lam))
    assert bias_report.ci_high[idx] < bias_report.lambda_grid[idx]
    # matches the analytic attenuation to the Monte Carlo resolution
    assert abs(fitted / lam - ATTEN) < 1e-3


def test_bias_scales_linearly_with_slope(bias_report):
    bias = bias_report.bias()
    lam = bias_report.lambda_grid
    r = np.corrcoef(lam, bias)[0, 1]
    assert r < -0.98  # attenuation: bias = (atten - 1) * lambda + noise


def test_deming_study_is_unbiased():
    spec = MonteCarloSpec(true_slope=0.8834, fit_method="deming",
                          n_experiments=400, seed=seed)
    report = slope_bias_study(spec)
    sem = (report.ci_high[0] - report.mean_fit[0]) / 1.96
    assert abs(report.mean_fit[0] - 0.8834) < 4.0 * sem
    assert report.ci_high[0] > 0.8834 - 3.0 * sem


def test_uniform_abscissa_attenuates_more():
    kw = dict(true_slope=0.8834, n_experiments=400, seed=seed)
    sin = slope_bias_study(MonteCarloSpec(abscissa="sinusoid", **kw))
    uni = slope_bias_study(MonteCarloSpec(abscissa="uniform", **kw))
    assert uni.mean_fit[0] < sin.mean_fit[0]


def test_report_validates_ci_bracket():
    with pytest.raises(ValueError):
        MonteCarloReport(np.array([0.5]), np.array([0.5]), np.array([0.6]),
                         np.array([0.7]), MonteCarloSpec(true_slope=0.5))


def test_fitted_slope_outside_grid_raises(bias_report):
    with pytest.raises(ValueError):
        bias_report.fitted_slope_at(1.5)


def test_discrepancy_curves(bias_report):
    curves = temperature_discrepancy(bias_report, ANCHOR)
    # A-derived temperature reads high by a few mK near the anchor point,
    # B and C stay within fractions of a mK
    dt_a = curves.at("A", 165.0)
    assert 2.0 <= dt_a <= 8.0
    mask = ~np.isnan(curves.dt_b_mk)
    assert np.nanmax(np.abs(curves.dt_b_mk)) <= 2.5
    assert np.nanmax(np.abs(curves.dt_c_mk)) <= 2.5
    assert mask.sum() > 10
    # low-temperature B and C fall below the studied slope grid and are skipped
    assert curves.n_skipped > 0
    assert curves.n_skipped + np.isfinite(
        np.concatenate([curves.dt_a_mk, curves.dt_b_mk, curves.dt_c_mk])
    ).sum() == 3 * len(curves.t_mk)


def test_repeated_stats_structure(wp_run):
    responses = wp_run.noiseless_responses
    stats = repeated_measurement_stats(responses, wp_run.levels, n_runs=40,
                                       noise_sigma=0.002, seed=seed)
    assert isinstance(stats, RepeatedStats)
    for coef in COEFFICIENTS:
        s = stats.samples(coef)
        assert len(s) == 40
        assert stats.std(coef) > 0.0
        x, f = stats.cdf(coef)
        assert np.all(np.diff(x) >= 0.0)
        assert np.all(np.diff(f) >= 0.0)
        assert abs(f[-1] - 1.0) < 1e-12
    d = stats.as_dict()
    for coef in COEFFICIENTS:
        assert f"T_{coef}_mean_mK" in d
        assert f"T_{coef}_std_mK" in d


def test_repeated_stats_deterministic(wp_run):
    responses = wp_run.noiseless_responses
    a = repeated_measurement_stats(responses, wp_run.levels, n_runs=20, seed=seed)
    b = repeated_measurement_stats(responses, wp_run.levels, n_runs=20, seed=seed)
    c = repeated_measurement_stats(responses, wp_run.levels, n_runs=20, seed=seed + 1)
    np.testing.assert_array_equal(a.samples("A"), b.samples("A"))
    assert np.max(np.abs(a.samples("A") - c.samples("A"))) > 0.0


def test_repeated_stats_noise_scaling(wp_run):
    responses = wp_run.noiseless_responses
    lo = repeated_measurement_stats(responses, wp_run.levels, n_runs=40,
                                    noise_sigma=0.002, seed=seed)
    hi = repeated_measurement_stats(responses, wp_run.levels, n_runs=40,
                                    noise_sigma=0.004, seed=seed)
    for coef in COEFFICIENTS:
        assert hi.std(coef) > lo.std(coef)
        # the mean stays anchored at the bath temperature
        assert abs(lo.mean(coef) - 163.0) < 8.0
