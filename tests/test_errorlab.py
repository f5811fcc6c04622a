import re

import numpy as np
import pytest

from conftest import make_synthetic_responses
from oracles import (
    repeated_temperatures_loop,
    repeated_temperatures_replayed,
    slope_bias_study_loop,
    slope_bias_study_replayed,
)
from tritherm import thermometry
from tritherm.errorlab import (
    MonteCarloReport,
    MonteCarloSpec,
    RepeatedStats,
    _fit_slope,
    repeated_measurement_stats,
    slope_bias_study,
    temperature_discrepancy,
)
from tritherm.readout import IQTrace
from tritherm.thermometry import (
    COEFFICIENTS,
    DegenerateDataError,
    SequenceResponses,
    SlopeOutOfRangeError,
    _deming_rule,
    _row_moments,
    _single_valued,
    estimate_temperature,
)

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
        MonteCarloSpec(true_slope=0.5, fit_method="huber")
    with pytest.raises(TypeError):  # the abscissa is always the IF sinusoid
        MonteCarloSpec(true_slope=0.5, abscissa="uniform")
    # a non-finite value is named here, not left to fail later as a CI that
    # does not bracket its mean
    for name, value in (("noise_sigma", np.inf), ("x_span", np.inf), ("true_slope", np.nan),
                        ("true_slope", np.inf), ("true_slope", -np.inf),
                        ("n_experiments", np.inf), ("n_points", np.nan)):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value}"):
            MonteCarloSpec(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("n_experiments", 150.0), ("n_experiments", True), ("n_points", 700.5),
    ("n_points", np.float64(700.0)), ("n_runs", 5.0), ("n_runs", False)])
def test_error_studies_reject_counts_that_are_not_integers(name, value):
    # 150.0 and 700.5 once passed the spec checks and ended in a bare
    # TypeError from range() or a slice
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    if name == "n_runs":
        responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
        with pytest.raises(ValueError, match=message):
            repeated_measurement_stats(responses, levels, n_runs=value, seed=1)
    else:
        with pytest.raises(ValueError, match=message):
            MonteCarloSpec(**{name: value, "seed": 1})


@pytest.mark.parametrize("value, message", [
    (-1, "seed must be non-negative, got -1"), (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"), (float("inf"), "seed must be a finite number, got inf")])
def test_spec_rejects_a_seed_numpy_cannot_take(value, message):
    # -1 and 1.5 once passed the spec and failed later in default_rng
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MonteCarloSpec(seed=value)
    assert MonteCarloSpec(seed=None).seed is None
    assert MonteCarloSpec(seed=np.int64(0)).seed == 0


@pytest.mark.parametrize("name, value", [
    ("n_points", "5"), ("n_experiments", None), ("noise_sigma", None), ("noise_sigma", "0.1"),
    ("noise_sigma", True), ("x_span", "0.04"), ("true_slope", "0.5")])
def test_error_studies_reject_values_that_are_not_numbers(name, value):
    # these once ended in numpy's bare TypeError from np.isfinite
    message = f"^{name} must be (a number|an integer), got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        MonteCarloSpec(**{name: value})
    if name == "noise_sigma":
        responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
        with pytest.raises(ValueError, match=message):
            repeated_measurement_stats(responses, levels, n_runs=4, noise_sigma=value)


def test_error_studies_take_numpy_integer_counts():
    spec = MonteCarloSpec(n_experiments=np.int64(100), n_points=np.int32(60), seed=1)
    assert len(spec.design_points()) == 60
    assert slope_bias_study(spec, [0.5, 0.6]).mean_fit.shape == (2,)
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    stats = repeated_measurement_stats(responses, levels, n_runs=np.int64(3), seed=1)
    assert stats.t_mk.shape == (3, 3)


def test_least_squares_fit_rejects_single_valued_x():
    # the variance of np.full(50, 0.1) rounds to ~1e-33, not to zero, so on
    # rows only the exact single-value test catches it; that of +-1e-300
    # underflows to exactly zero although x is not single-valued
    rng = np.random.default_rng(seed)
    xs = np.stack([np.full(50, 0.1), np.resize([-1e-300, 0.0, 1e-300], 50),
                   rng.normal(size=50)])
    ys = rng.normal(size=(3, 50))
    _, _, sxx, syy, sxy = _row_moments(xs, ys)
    assert _single_valued(xs).tolist() == [True, False, False]
    assert (sxx == 0.0).tolist() == [False, True, False]
    assert _fit_slope(sxx, syy, sxy, "least_squares")[1].tolist() == [False, True, False]
    slopes, degenerate = _deming_rule(sxx, syy, sxy, _single_valued(xs) | _single_valued(ys))
    assert degenerate.tolist() == [True, False, False]
    assert np.isfinite(slopes[2])
    # Deming flags what deming_slope rejects: a single-valued y here
    xs, ys = xs[[2, 2]], np.stack([ys[0], np.full(50, 0.3)])
    _, _, sxx, syy, sxy = _row_moments(xs, ys)
    slopes, degenerate = _deming_rule(sxx, syy, sxy, _single_valued(xs) | _single_valued(ys))
    assert degenerate.tolist() == [False, True]


def test_fit_slope_reads_moments():
    # (sxx, syy, sxy): a fit, zero sxx, zero syy, zero covariance, subnormal
    # sxx; a variance underflows to zero where the covariance need not
    sxx = np.array([2.0, 0.0, 2.0, 1.0, 5e-324])
    syy = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    sxy = np.array([0.5, 1e-170, 1e-170, 0.0, 1e-300])
    slopes, degenerate = _fit_slope(sxx, syy, sxy, "least_squares")
    assert degenerate.tolist() == [False, True, False, False, False]
    np.testing.assert_array_equal(slopes[[0, 2, 3]], [0.25, 5e-171, 0.0])
    assert np.isfinite(slopes[4])
    slopes, degenerate = _fit_slope(sxx, syy, sxy, "deming")
    assert degenerate.tolist() == [False, True, True, True, False]
    # (syy - sxx + sqrt((syy - sxx)^2 + 4 sxy^2)) / (2 sxy)
    np.testing.assert_allclose(slopes[0], np.sqrt(2.0) - 1.0, rtol=1e-15)
    assert np.isfinite(slopes[4])


def test_bias_study_without_two_fits_names_the_slope():
    # every x row spans +-1e-300, so every least-squares fit is degenerate
    spec = MonteCarloSpec(true_slope=0.5, n_points=3, x_span=1e-300, noise_sigma=0.0,
                          n_experiments=100, seed=seed)
    with pytest.raises(DegenerateDataError, match="0 of 100 .* slope 0.5"):
        slope_bias_study(spec)


STUDY_CASES = [
    dict(fit_method="least_squares"),
    dict(fit_method="deming"),
    dict(fit_method="least_squares", noise_sigma=0.0),
    dict(fit_method="deming", noise_sigma=0.0),
    # squares of ~3e-162 underflow, so some fits (not all) are degenerate
    dict(fit_method="least_squares", n_points=3, x_span=3e-162, noise_sigma=3e-162),
    dict(fit_method="deming", n_points=3, x_span=3e-162, noise_sigma=3e-162),
]


def _study_id(case):
    """The fit method, the design's abscissa (an IF sinusoid) and the other fields."""
    method, *rest = case.values()
    return "-".join(map(str, [method, "sinusoid", *rest]))


@pytest.mark.parametrize("case", STUDY_CASES, ids=_study_id)
def test_bias_study_matches_the_per_experiment_loop(case):
    # the sampled moments follow the law of explicit noisy clouds: means
    # within 4 combined SEMs, SEMs within 25%; noiseless studies are exact
    spec = MonteCarloSpec(**dict(true_slope=0.5, n_experiments=400, n_points=120, seed=seed)
                          | case)
    grid = np.linspace(0.05, 1.0, 4)
    report = slope_bias_study(spec, grid)
    mean, _, hi, failures = slope_bias_study_loop(spec, grid)
    assert (failures > 0) == (report.n_failures > 0) == (spec.x_span < 1e-100)
    if spec.x_span < 1e-100:
        return
    sem, sem_ref = report.ci_high - report.mean_fit, hi - mean
    if spec.noise_sigma == 0.0:
        np.testing.assert_allclose(report.mean_fit, mean, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal([sem, sem_ref], 0.0)
        return
    assert np.all(np.abs(report.mean_fit - mean) <= 4.0 * np.hypot(sem, sem_ref) / 1.96)
    assert np.all((0.8 <= sem / sem_ref) & (sem / sem_ref <= 1.25))


@pytest.mark.parametrize("case", [c for c in STUDY_CASES if c.get("x_span", 1.0) > 1e-100] + [
    # nu = n - 3 < 2 directions left for the two rows: Z Z^T in place of L L^T
    dict(fit_method="least_squares", n_points=3),
    dict(fit_method="deming", n_points=4),
], ids=_study_id)
def test_bias_study_matches_its_replayed_clouds(case):
    spec = MonteCarloSpec(**dict(true_slope=0.5, n_experiments=101, n_points=120, seed=seed)
                          | case)
    grid = np.linspace(0.05, 1.0, 4)
    report = slope_bias_study(spec, grid)
    mean, lo, hi, failures = slope_bias_study_replayed(spec, grid)
    for got, ref in ((report.mean_fit, mean), (report.ci_low, lo), (report.ci_high, hi)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    assert report.n_failures == failures == 0


def test_slope_bias_study_rejects_bad_grid():
    spec = MonteCarloSpec(true_slope=0.5, n_experiments=100, seed=seed)
    for grid in ([], [0.5, 0.5], [1.0, 0.01], [0.5, np.nan], [np.nan], [0.5, np.inf],
                 [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="^lambda grid must be non-empty, finite"):
            slope_bias_study(spec, grid)


def test_design_points():
    spec = MonteCarloSpec(true_slope=0.5, x_span=0.042, n_points=700)
    x = spec.design_points()
    assert len(x) == 700
    assert np.max(np.abs(x)) <= 0.042 + 1e-15
    # sinusoid: mean square = span^2 / 2
    assert abs(np.mean(x ** 2) - 0.042 ** 2 / 2.0) < 0.05 * 0.042 ** 2
    for n in range(3, 10):
        assert len(MonteCarloSpec(true_slope=0.5, n_points=n).design_points()) == n


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
    bias = bias_report.mean_fit - bias_report.lambda_grid
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


def test_report_validates_ci_bracket():
    with pytest.raises(ValueError):
        MonteCarloReport(np.array([0.5]), np.array([0.5]), np.array([0.6]), np.array([0.7]))


def test_fitted_slope_outside_grid_raises(bias_report):
    with pytest.raises(ValueError):
        bias_report.fitted_slope_at(1.5)


def test_discrepancy_curves(bias_report):
    curves = temperature_discrepancy(bias_report, ANCHOR)
    # A-derived temperature reads high by a few mK near the anchor point,
    # B and C stay within fractions of a mK
    dt_a = curves.at("A", 165.0)
    assert 2.0 <= dt_a <= 8.0
    mask = ~np.isnan(curves.dt_mk[:, 1])
    assert np.nanmax(np.abs(curves.dt_mk[:, 1])) <= 2.5
    assert np.nanmax(np.abs(curves.dt_mk[:, 2])) <= 2.5
    assert mask.sum() > 10
    # low-temperature B and C fall below the studied slope grid and are skipped
    assert curves.n_skipped > 0
    assert curves.n_skipped + np.isfinite(curves.dt_mk).sum() == 3 * len(curves.t_mk)


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


REPEATED_CASES = [
    dict(),
    dict(clamp=True),
    dict(noise_sigma=0.0),
    # fewer than 6 noise directions outside Q: Z Z^T in place of the Bartlett factor
    dict(n_samples=6, clamp=True),
    # 6 fit points: Q spans 5 directions, fewer than the 6 traces, and Z none
    dict(n_samples=3, clamp=True),
]


def _case_id(case):
    return "-".join(f"{k}={v}" for k, v in case.items()) or "default"


@pytest.mark.parametrize("case", REPEATED_CASES, ids=_case_id)
def test_repeated_draws_match_estimate_temperature(case):
    # each draw equals estimate_temperature on traces with its sampled
    # scatter, rebuilt from its draws; noiseless draws on the clean traces
    kw = dict(clamp=False, noise_sigma=0.002, n_samples=60) | case
    sigma = kw.pop("noise_sigma")
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=kw.pop("n_samples"))
    stats = repeated_measurement_stats(responses, levels, n_runs=21, noise_sigma=sigma,
                                       seed=seed, **kw)
    if sigma == 0.0:
        np.testing.assert_array_equal(
            stats.t_mk, repeated_temperatures_loop(responses, levels, 21, sigma, seed, **kw))
        return
    np.testing.assert_allclose(
        stats.t_mk, repeated_temperatures_replayed(responses, levels, 21, sigma, seed, **kw),
        rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n_samples", [60, 3])
def test_repeated_draws_follow_the_law_of_explicit_noise(n_samples):
    # against draws that add noise to every sample: means within 3 combined
    # SEMs, standard deviations within 15% of each other
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=n_samples)
    n_runs = 1000
    sampled = repeated_measurement_stats(responses, levels, n_runs=n_runs, noise_sigma=0.002,
                                         seed=seed, clamp=True).t_mk
    explicit = repeated_temperatures_loop(responses, levels, n_runs, 0.002, seed + 1,
                                          clamp=True)
    sd, sd_ref = sampled.std(axis=0, ddof=1), explicit.std(axis=0, ddof=1)
    assert np.all(np.abs(sampled.mean(axis=0) - explicit.mean(axis=0))
                  <= 3.0 * np.hypot(sd, sd_ref) / np.sqrt(n_runs))
    assert np.all((0.85 <= sd / sd_ref) & (sd / sd_ref <= 1.15))


def test_repeated_draws_clamp_out_of_range_slopes():
    # at 8 mK 1 - A ~ 1e-18: noise puts some A slopes past the cold edge
    responses, levels = make_synthetic_responses(t_mk=8.0, n_samples=60)
    with pytest.raises(SlopeOutOfRangeError):
        repeated_measurement_stats(responses, levels, n_runs=10, seed=seed)
    with pytest.raises(SlopeOutOfRangeError):
        repeated_temperatures_replayed(responses, levels, 10, 0.002, seed)
    stats = repeated_measurement_stats(responses, levels, n_runs=10, seed=seed, clamp=True)
    assert np.any(stats.samples("A") == 1.0)
    np.testing.assert_allclose(
        stats.t_mk, repeated_temperatures_replayed(responses, levels, 10, 0.002, seed, clamp=True),
        rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.001])
def test_repeated_draws_reject_noise_that_is_not_a_finite_std(sigma):
    # NaN and inf once passed the sign check and failed later as a slope
    # out of range or, clamped, as an unconverged inversion
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    for clamp in (False, True):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and non-negative"):
            repeated_measurement_stats(responses, levels, n_runs=4, noise_sigma=sigma,
                                       clamp=clamp)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("estimator", [estimate_temperature, repeated_measurement_stats])
def test_estimators_reject_a_non_finite_sample_naming_its_slot(estimator, bad):
    # an inf once ran through the fits into "ci95 must contain the point value"
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    y2 = responses.y2
    q_vals = y2.q_vals.copy()
    q_vals[5] = bad
    traces = responses.as_dict() | {"y2": IQTrace(y2.t_ns, y2.i_vals, q_vals, "y2")}
    with pytest.raises(ValueError, match="^trace y2 has a non-finite sample$"):
        estimator(SequenceResponses.from_dict(traces), levels)


def test_repeated_draws_keep_the_estimator_guards(monkeypatch):
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    with pytest.raises(ValueError, match="at least 2"):
        repeated_measurement_stats(responses, levels, n_runs=1)
    # one sample per trace: two fit points, I and Q
    short, _ = make_synthetic_responses(t_mk=120.0, n_samples=1)
    with pytest.raises(ValueError, match="^need at least 3 paired points"):
        repeated_measurement_stats(short, levels, n_runs=4)
    # identical x0 and x1 make the A pair along ge single-valued in y
    x0 = responses.x0
    same = SequenceResponses.from_dict(
        responses.as_dict() | {"x1": IQTrace(x0.t_ns, x0.i_vals, x0.q_vals, "x1")})
    pair = r"^A/ge pair \(x0 - x1 against y0 - y1\): y series takes a single value"
    with pytest.raises(DegenerateDataError, match=pair):
        repeated_measurement_stats(same, levels, n_runs=4, noise_sigma=0.0)
    with pytest.raises(DegenerateDataError, match=pair):
        estimate_temperature(same, levels)
    # under noise far below their rounding, every sampled scatter of that
    # pair's y row is exactly zero
    with pytest.raises(DegenerateDataError, match=r"^A/ge pair \(x0 - x1 against y0 - y1\): "):
        repeated_measurement_stats(same, levels, n_runs=4, noise_sigma=1e-200)
    # a temperature that does not reproduce its slope fails the residual check
    monkeypatch.setattr(thermometry, "_invert_coefficient",
                        lambda levels, which, values, clamp: np.full(np.shape(values), 151.0))
    with pytest.raises(RuntimeError, match="inversion residual"):
        repeated_measurement_stats(responses, levels, n_runs=4)


def test_a_degenerate_pair_is_named_alike_by_both_fit_callers():
    # identical x2 and y2 make B ge (x2 - y2 against x0 - x1) single-valued
    # in y, and C ge after it; noiseless draws fit the clean traces once
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    x2 = responses.x2
    same = SequenceResponses.from_dict(
        responses.as_dict() | {"y2": IQTrace(x2.t_ns, x2.i_vals, x2.q_vals, "y2")})
    pair = r"^B/ge pair \(x2 - y2 against x0 - x1\): y series takes a single value"
    with pytest.raises(DegenerateDataError, match=pair):
        estimate_temperature(same, levels)
    with pytest.raises(DegenerateDataError, match=pair):
        repeated_measurement_stats(same, levels, n_runs=9, noise_sigma=0.0)
