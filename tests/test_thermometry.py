import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import make_synthetic_responses
from oracles import (
    bootstrap_pair_slopes_loop,
    coefficient_from_populations,
    difference_pairs,
    invert_coefficient_scalar,
)
from tritherm import thermometry
from tritherm.hilbert import LevelEnergies, Populations
from tritherm.readout import IQTrace, add_noise
from tritherm.thermometry import (
    T_BRACKET_MK,
    COEFFICIENTS,
    DIFFERENCE_PAIRS,
    DegenerateDataError,
    SequenceResponses,
    SlopeOutOfRangeError,
    TemperatureEstimate,
    attainable_range,
    coefficient_vs_temperature,
    deming_fit,
    deming_slope,
    _aggregate,
    _deming_rule,
    _invert_coefficient,
    _pair_moments,
    _pair_rows,
    _row_moments,
    _single_valued,
    estimate_temperature,
    invert_temperature,
)

seed = 20260312

ANCHOR = (6.74, 13.14)


def _invert(coef, value, levels, half=1e-4, clamp=False):
    return invert_temperature(coef, value, (value - half, value + half), levels, clamp)


def test_coefficients_from_populations():
    p = Populations(0.8, 0.15, 0.05)
    assert abs(coefficient_from_populations(p, "A") - 13.0 / 15.0) < 1e-14
    assert abs(coefficient_from_populations(p, "B") - 2.0 / 13.0) < 1e-14
    assert abs(coefficient_from_populations(p, "C") - 2.0 / 15.0) < 1e-14
    with pytest.raises(ValueError):
        coefficient_from_populations(p, "D")
    flat = Populations(1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(DegenerateDataError):
        coefficient_from_populations(flat, "A")


def test_coefficient_temperature_limits():
    lv = LevelEnergies.from_frequencies(*ANCHOR)
    t = np.linspace(20.0, 400.0, 40)
    a = [coefficient_vs_temperature(lv, x, "A") for x in t]
    b = [coefficient_vs_temperature(lv, x, "B") for x in t]
    assert np.all(np.diff(a) < 0)  # A falls toward high T
    assert np.all(np.diff(b) > 0)  # B rises from 0
    assert coefficient_vs_temperature(lv, 1.0, "A") > 1.0 - 1e-10
    assert coefficient_vs_temperature(lv, 1.0, "B") < 1e-10
    with pytest.raises(ValueError):
        coefficient_vs_temperature(lv, 0.05, "A")


def test_inversion_anchor_points():
    # frozen against direct Boltzmann-ratio arithmetic on the stated levels
    est = _invert("A", 0.9936, (5.7, 11.1))
    assert abs(est.t_mk - 54.244218513127876) < 1e-6
    assert abs(est.t_mk - 54.0) < 1.0

    est = _invert("B", 0.1320, ANCHOR)
    assert abs(est.t_mk - 161.06712993672295) < 1e-6
    assert abs(est.t_mk - 161.0) < 2.0
    lo, hi = est.t_ci95_mk
    assert lo < est.t_mk < hi


def test_inversion_is_exact_round_trip():
    lv = LevelEnergies.from_frequencies(*ANCHOR)
    for coef in COEFFICIENTS:
        for t_true in (40.0, 120.0, 250.0, 700.0):
            val = coefficient_vs_temperature(lv, t_true, coef)
            est = _invert(coef, val, lv)
            assert abs(est.t_mk - t_true) < 1e-5


def test_inversion_out_of_range():
    with pytest.raises(SlopeOutOfRangeError) as err:
        _invert("A", 1.2, ANCHOR)
    assert "attainable range" in str(err.value)
    est = _invert("A", 1.2, ANCHOR, clamp=True)
    assert est.t_mk == 1.0  # cold edge of the bracket
    est = _invert("B", 0.9, ANCHOR, clamp=True)
    assert est.t_mk == 2000.0
    lo, hi = attainable_range(ANCHOR, "A")
    assert 0.0 < lo < hi < 1.0 + 1e-12


def test_temperature_records_check_their_inputs():
    with pytest.raises(ValueError, match="^ci95 must contain the point value$"):
        invert_temperature("B", 0.1320, (0.1321, 0.1322), ANCHOR)
    with pytest.raises(ValueError, match="^coefficient must be one of"):
        TemperatureEstimate("D", 0.1320, 161.0, (160.0, 162.0))
    with pytest.raises(ValueError, match="^t_mk must be positive$"):
        TemperatureEstimate("B", 0.1320, 0.0, (0.0, 0.0))


# temperatures across the inversion bracket, denser at the cold end
BRACKET_GRID = np.geomspace(1.0, 2000.0, 61)


@pytest.mark.parametrize("which", COEFFICIENTS)
def test_inversion_matches_brentq(which):
    for t_mk in BRACKET_GRID:
        value = coefficient_vs_temperature(ANCHOR, t_mk, which)
        got = _invert_coefficient(ANCHOR, which, value, clamp=False)
        assert abs(coefficient_vs_temperature(ANCHOR, got, which) - value) <= 1e-10
        # below ~20 mK, 1 - A ~ exp(-h f_ge / k_B T) < 1e-7, so one ulp of A
        # spans more than 1e-8 mK and any two solvers may stop apart
        if which == "A" and t_mk < 20.0:
            continue
        ref = brentq(lambda t: coefficient_vs_temperature(ANCHOR, t, which) - value,
                     *T_BRACKET_MK, xtol=1e-9)
        assert abs(got - ref) <= 1e-8, (which, t_mk, got, ref)


@pytest.mark.parametrize("which", COEFFICIENTS)
def test_array_inversion_equals_one_value_at_a_time(which):
    # bit for bit, the iteration in Python floats; the grid's two ends are the
    # bracket edges, which return without iterating
    values = coefficient_vs_temperature(ANCHOR, BRACKET_GRID, which)
    together = _invert_coefficient(ANCHOR, which, values.reshape(-1, 1), clamp=False)
    assert together.shape == (len(BRACKET_GRID), 1)
    alone = [float(_invert_coefficient(ANCHOR, which, v, clamp=False)) for v in values]
    np.testing.assert_array_equal(together[:, 0], alone)
    noisy = values[1:-1] * (1.0 + 1e-4 * np.sin(np.arange(len(values) - 2)))
    noisy = noisy[(noisy > values.min()) & (noisy < values.max())]
    np.testing.assert_array_equal(_invert_coefficient(ANCHOR, which, noisy, clamp=False),
                                  [invert_coefficient_scalar(ANCHOR, which, v) for v in noisy])
    # one out-of-range value fails the whole array unless clamped
    lo, hi = attainable_range(ANCHOR, which)
    spoiled = np.append(values, hi + 1e-3)
    with pytest.raises(SlopeOutOfRangeError):
        _invert_coefficient(ANCHOR, which, spoiled, clamp=False)
    clamped = _invert_coefficient(ANCHOR, which, spoiled, clamp=True)
    np.testing.assert_array_equal(clamped[:-1], alone)
    assert clamped[-1] == (T_BRACKET_MK[0] if which == "A" else T_BRACKET_MK[1])


def test_point_ci_reuses_the_point_temperature(monkeypatch):
    # the point and both CI bounds go in one inversion call; the inversion is
    # elementwise, so a bound equal to the point gets the point's temperature
    calls = []
    invert = thermometry._invert_coefficient
    def counted(*args):
        calls.append(args)
        return invert(*args)
    value = coefficient_vs_temperature(ANCHOR, 150.0, "B")
    monkeypatch.setattr(thermometry, "_invert_coefficient", counted)
    point = _invert("B", value, ANCHOR, half=0.0)
    assert len(calls) == 1 and point.t_ci95_mk == (point.t_mk, point.t_mk)
    assert point.t_mk == float(invert(ANCHOR, "B", value, False))
    calls.clear()
    spread = _invert("B", value, ANCHOR)
    assert len(calls) == 1 and spread.t_mk == point.t_mk
    assert spread.t_ci95_mk[0] < point.t_mk < spread.t_ci95_mk[1]
    alone = sorted(float(invert(ANCHOR, "B", v, True)) for v in (value - 1e-4, value + 1e-4))
    assert list(spread.t_ci95_mk) == alone
    calls.clear()
    one_sided = invert_temperature("B", value, (value, value + 1e-4), ANCHOR)
    assert len(calls) == 1
    assert one_sided.t_ci95_mk == (point.t_mk, spread.t_ci95_mk[1])
    # bounds past the attainable range are clamped to the bracket, the point is not
    wide = _invert("B", value, ANCHOR, half=10.0)
    assert wide.t_mk == point.t_mk and wide.t_ci95_mk == T_BRACKET_MK


def test_mixed_clamp_raises_only_for_unclamped_values():
    lo, hi = attainable_range(ANCHOR, "C")
    inside = coefficient_vs_temperature(ANCHOR, 150.0, "C")
    values = np.array([inside, hi + 1e-3, lo - 1e-3])
    t = _invert_coefficient(ANCHOR, "C", values, np.array([False, True, True]))
    assert t.tolist() == [float(_invert_coefficient(ANCHOR, "C", inside, False)),
                          T_BRACKET_MK[1], T_BRACKET_MK[0]]
    for k in (1, 2):
        clamp = np.ones(3, dtype=bool)
        clamp[k] = False
        with pytest.raises(SlopeOutOfRangeError, match=rf"^slope {values[k]:.6g} outside"):
            _invert_coefficient(ANCHOR, "C", values, clamp)


def test_inversion_evaluation_budget(monkeypatch):
    # the Newton iteration in exp(-h f_ge / k_B T) is closed-form, so each
    # inversion evaluates the coefficient only at the two bracket ends, for
    # attainable_range (brentq on the coefficient in T needs up to 39 more)
    calls = []
    def counted(*args):
        calls.append(args)
        return coefficient_vs_temperature(*args)
    monkeypatch.setattr(thermometry, "coefficient_vs_temperature", counted)
    for levels in (ANCHOR, (4.98, 9.51)):
        for which in COEFFICIENTS:
            for t_mk in BRACKET_GRID:
                value = coefficient_vs_temperature(levels, t_mk, which)
                calls.clear()
                _invert_coefficient(levels, which, value, clamp=False)
                assert len(calls) == 2, (levels, which, t_mk, len(calls))


# f_ge 3.5-8 GHz and f_gf / f_ge 1.67-2.0
DEVICES = ((3.5, 7.0), (3.5, 5.845), (5.0, 9.0), (8.0, 13.36), (8.0, 16.0))


def test_inversion_grid_over_devices(default_ops, wp_config):
    shipped = (default_ops.levels(), wp_config.system.build_operators().levels())
    for levels in shipped + DEVICES:
        for which in COEFFICIENTS:
            for t_mk in BRACKET_GRID:
                value = coefficient_vs_temperature(levels, t_mk, which)
                got = _invert_coefficient(levels, which, value, clamp=False)
                assert abs(coefficient_vs_temperature(levels, got, which) - value) <= 1e-10
                # where 1 - A < 1e-7 (below ~20 mK at f_ge 6.74 GHz, ~24 mK at
                # 8 GHz) one ulp of A spans more than 1e-9 mK
                if which == "A" and 1.0 - value < 1e-7:
                    continue
                assert abs(got - t_mk) <= 1e-9, (levels, which, t_mk, got)


def test_inversion_guards_raise(monkeypatch):
    # a NaN slope never stops the Newton iteration, so the step cap raises
    with pytest.raises(RuntimeError, match="not converged"):
        _invert_coefficient(ANCHOR, "B", float("nan"), clamp=True)
    value = coefficient_vs_temperature(ANCHOR, 150.0, "C")
    monkeypatch.setattr(thermometry, "_invert_coefficient",
                        lambda levels, which, values, clamp: np.full(np.shape(values), 151.0))
    with pytest.raises(RuntimeError, match="inversion residual"):
        _invert("C", value, ANCHOR)


def test_deming_exact_collinear():
    x = np.linspace(-1.0, 1.0, 41)
    fit = deming_fit(x, 0.37 * x + 0.05)
    assert abs(fit.slope - 0.37) < 1e-12
    assert abs(fit.intercept - 0.05) < 1e-12
    assert fit.residual_rms < 1e-12


def test_deming_axis_swap_reciprocal():
    # equal noise on both axes treats them symmetrically: swapping x and y inverts
    # the slope exactly
    rng = np.random.default_rng(seed)
    x = rng.normal(size=200)
    y = 0.8 * x + rng.normal(scale=0.3, size=200)
    ab = deming_fit(x, y).slope
    ba = deming_fit(y, x).slope
    assert abs(ab * ba - 1.0) < 1e-12


def test_deming_beats_ols_attenuation():
    rng = np.random.default_rng(seed + 2)
    lam = 0.8834
    x = rng.uniform(-0.042, 0.042, size=2000)
    nx = x + rng.normal(scale=0.002, size=x.size)
    ny = lam * x + rng.normal(scale=0.002, size=x.size)
    fit = deming_fit(nx, ny)
    ols = np.sum(nx * ny) / np.sum(nx * nx)
    # OLS attenuates toward zero; errors-in-variables does not
    assert abs(fit.slope - lam) < abs(ols - lam)


def test_deming_bootstrap_ci():
    rng = np.random.default_rng(seed + 3)
    x = rng.uniform(-1.0, 1.0, size=300)
    y = 0.5 * x + rng.normal(scale=0.05, size=300)
    a = deming_fit(x, y, n_bootstrap=400, rng=np.random.default_rng(11))
    b = deming_fit(x, y, n_bootstrap=400, rng=np.random.default_rng(11))
    assert np.array_equal(a.ci95, b.ci95)
    assert a.ci95[0] < a.slope < a.ci95[1]
    assert a.ci95[0] < 0.5 < a.ci95[1]


def test_deming_rejects_degenerate_data():
    with pytest.raises(DegenerateDataError):
        deming_fit(np.zeros(50), np.zeros(50))
    with pytest.raises(ValueError, match="at least 3"):
        deming_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="differ in length: 5 and 4"):
        deming_slope(np.arange(5.0), np.arange(4.0))


def test_deming_fits_take_no_variance_ratio():
    # both axes carry the same noise, so the ratio is 1; a positional third
    # argument fails rather than becoming the resample count
    x = np.arange(5.0)
    for call in (lambda: deming_fit(x, x ** 2, 1.0), lambda: deming_slope(x, x ** 2, delta=1.0),
                 lambda: deming_fit(x, x ** 2, variance_ratio_delta=1.0)):
        with pytest.raises(TypeError):
            call()


def test_negative_bootstrap_count_raises():
    # it once gave a zero-width CI, as n_bootstrap 0 does
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="^n_bootstrap must be non-negative, got -5$"):
        deming_fit(x, 0.5 * x + 0.01 * np.sin(7 * x), n_bootstrap=-5)
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    with pytest.raises(ValueError, match="^n_bootstrap must be non-negative, got -5$"):
        estimate_temperature(responses, levels, n_bootstrap=-5)


@pytest.mark.parametrize("count", [2.5, True, False, "5", None, np.float64(3.0)])
def test_non_integer_bootstrap_count_raises(count):
    # 2.5 and True once reached the resample loop as a bare TypeError
    x = np.linspace(0.0, 1.0, 20)
    message = f"^n_bootstrap must be an integer, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        deming_fit(x, 0.5 * x + 0.01 * np.sin(7 * x), n_bootstrap=count)
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=60)
    with pytest.raises(ValueError, match=message):
        estimate_temperature(responses, levels, n_bootstrap=count)


def test_numpy_integer_bootstrap_count_is_accepted():
    x = np.linspace(0.0, 1.0, 20)
    y = 0.5 * x + 0.01 * np.sin(7 * x)
    want = deming_fit(x, y, n_bootstrap=50, rng=3)
    got = deming_fit(x, y, n_bootstrap=np.int64(50), rng=3)
    assert np.array_equal(got.ci95, want.ci95)


def test_deming_rejects_single_valued_series():
    # a constant non-zero x leaves a rounding-level variance, not zero
    with pytest.raises(DegenerateDataError):
        deming_slope(np.full(50, 0.1), np.full(50, 0.05))
    with pytest.raises(DegenerateDataError):
        deming_slope(np.linspace(0.0, 1.0, 50), np.full(50, 0.1))


def test_bootstrap_skips_resamples_with_single_valued_x():
    # about a third of the resamples miss the one outlier and see x = 0.1 only
    x = np.array([0.1, 0.7, 0.1, 0.1, 0.1, 0.1, 0.1])
    y = np.array([0.2, 0.5, 0.2, 0.2, 0.2, 0.2, 0.2])
    fit = deming_fit(x, y, n_bootstrap=1000, rng=4)
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.ci95[0] - 0.5) < 1e-12
    assert abs(fit.ci95[1] - 0.5) < 1e-12


def _reference_bootstrap(xs, ys, n_bootstrap, seed):
    """One deming_slope call per resample; returns the kept slopes."""
    gen = np.random.default_rng(seed)
    n = len(xs)
    kept = []
    for _ in range(n_bootstrap):
        idx = gen.integers(0, n, size=n)
        try:
            kept.append(deming_slope(xs[idx], ys[idx])[0])
        except DegenerateDataError:
            pass
    return kept


@pytest.mark.parametrize("n", [350, 700, 701])
def test_bootstrap_matches_per_resample_reference(n):
    rng = np.random.default_rng(seed + n)
    x = rng.uniform(-0.04, 0.04, size=n)
    xs = x + rng.normal(scale=0.002, size=n)
    ys = 0.13 * x + rng.normal(scale=0.002, size=n)
    for n_bootstrap in (1, 63, 64, 65, 1000):
        fit = deming_fit(xs, ys, n_bootstrap=n_bootstrap, rng=7)
        lo, hi = np.percentile(_reference_bootstrap(xs, ys, n_bootstrap, 7), [2.5, 97.5])
        want = (min(lo, fit.slope), max(hi, fit.slope))
        for got, ref in zip(fit.ci95, want):
            assert abs(got - ref) <= 1e-12 * abs(ref), (n_bootstrap, got, ref)


def test_bootstrap_mostly_degenerate_raises():
    # resamples single-valued in x or in y: 15 of every 27 on average
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 1.0])
    assert len(_reference_bootstrap(x, y, 1000, 0)) < 500
    with pytest.raises(DegenerateDataError, match="mostly degenerate"):
        deming_fit(x, y, n_bootstrap=1000, rng=0)
    # one resample, and it is degenerate: nothing is left to take a CI from
    for rng in (0, 1, 4):
        assert _reference_bootstrap(x, y, 1, rng) == []
        with pytest.raises(DegenerateDataError, match="mostly degenerate"):
            deming_fit(x, y, n_bootstrap=1, rng=rng)


def test_mostly_degenerate_bootstrap_names_its_row():
    bad_x, bad_y = [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]
    good_x, good_y = [0.1, 0.7, 0.3], [0.2, 0.5, 0.9]
    for xs, ys, row in (([bad_x, good_x], [bad_y, good_y], (0,)),
                        ([good_x, bad_x], [good_y, bad_y], (1,)),
                        ([[good_x, good_x], [good_x, bad_x]],
                         [[good_y, good_y], [good_y, bad_y]], (1, 1)),
                        (bad_x, bad_y, ())):
        with pytest.raises(DegenerateDataError) as err:
            deming_fit(np.array(xs), np.array(ys), n_bootstrap=1000, rng=0)
        assert err.value.row == row
        assert err.value.reason == "bootstrap resamples mostly degenerate"
        prefix = f"row {', '.join(map(str, row))}: " if row else ""
        assert str(err.value) == prefix + err.value.reason


def test_mostly_degenerate_bootstrap_names_its_pair():
    # three samples per slot, six fit points per pair (I then Q): x2 - y2 and
    # x0 - x1 are each zero but at one point, so B/ge (x2 - y2 against
    # x0 - x1), the fifth pair, is single-valued in the ~58% of resamples
    # that miss either point; every other pair keeps more than half of 1000
    i_vals = [[1, 1, 0], [1, 1, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]]
    q_vals = [[1, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
    t = np.arange(3.0)
    responses = SequenceResponses.from_dict(
        {lab: IQTrace(t, np.array(i, dtype=float), np.array(q, dtype=float), lab)
         for lab, i, q in zip(("x0", "x1", "x2", "y0", "y1", "y2"), i_vals, q_vals)})
    estimate_temperature(responses, ANCHOR, clamp=True)  # point fits hold
    kept = thermometry._bootstrap_slopes(*_pair_rows(responses.iq()), 1000,
                                         np.random.default_rng(0))
    assert [k for k, slopes in enumerate(kept) if len(slopes) < 500] == [4]
    with pytest.raises(DegenerateDataError,
                       match=r"^B/ge pair \(x2 - y2 against x0 - x1\): bootstrap resamples "
                             r"mostly degenerate$"):
        estimate_temperature(responses, ANCHOR, n_bootstrap=1000, seed=0)


def test_bootstrap_memory_is_flat_in_resamples():
    rng = np.random.default_rng(seed + 4)
    x = rng.normal(size=700)
    y = 0.5 * x + rng.normal(scale=0.1, size=700)
    tracemalloc.start()
    try:
        deming_fit(x, y, n_bootstrap=1000, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_nine_row_bootstrap_memory_is_flat_in_resamples():
    rng = np.random.default_rng(seed + 5)
    x = rng.normal(size=(9, 700))
    y = 0.5 * x + rng.normal(scale=0.1, size=(9, 700))
    tracemalloc.start()
    try:
        thermometry._bootstrap_slopes(x, y, 1000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def _noisy_responses(n_samples, noise_seed):
    responses, levels = make_synthetic_responses(t_mk=120.0, n_samples=n_samples)
    rng = np.random.default_rng(noise_seed)
    return SequenceResponses.from_dict({name: add_noise(tr, 0.02, 1, rng)
                                        for name, tr in responses.as_dict().items()}), levels


def _assert_pair_cis_match_reference(report, xs, ys, n_bootstrap, seed):
    kept = bootstrap_pair_slopes_loop(xs, ys, n_bootstrap, seed)
    pairs = report.pairs
    for tag, value, ci, samples in zip(thermometry._PAIR_TAGS, pairs.slope, pairs.ci95, kept):
        lo, hi = np.percentile(samples, [2.5, 97.5])
        for got, ref in zip(ci, (min(lo, value), max(hi, value))):
            assert abs(got - ref) <= 1e-12 * abs(ref), (tag, n_bootstrap, got, ref)
    return kept


def test_shared_bootstrap_matches_per_resample_reference():
    responses, levels = _noisy_responses(350, seed + 6)
    xs, ys = _pair_rows(responses.iq())
    for n_bootstrap in (1, 63, 64, 65, 1000):
        report = estimate_temperature(responses, levels, n_bootstrap=n_bootstrap, seed=7)
        _assert_pair_cis_match_reference(report, xs, ys, n_bootstrap, 7)


def test_shared_bootstrap_masks_each_pair_row_on_its_own():
    # every difference serves two pairs: x0 - x1 is the y row of A ge and the
    # x row of B ge.  Zero but for its last I sample, it leaves those two rows
    # single-valued in the ~36% of resamples that miss that point, and no other
    responses, levels = _noisy_responses(12, seed + 7)
    traces = responses.as_dict()
    x0 = traces["x0"]
    i_vals = x0.i_vals.copy()
    i_vals[-1] += 0.3
    traces["x1"] = IQTrace(x0.t_ns, i_vals, x0.q_vals, "x1")
    responses = SequenceResponses.from_dict(traces)
    xs, ys = _pair_rows(responses.iq())
    report = estimate_temperature(responses, levels, n_bootstrap=1000, seed=3, clamp=True)
    kept = _assert_pair_cis_match_reference(report, xs, ys, 1000, 3)
    short = [tag for tag, slopes in zip(thermometry._PAIR_TAGS, kept) if len(slopes) < 1000]
    assert short == [("A", "ge"), ("B", "ge")]
    got = thermometry._bootstrap_slopes(xs, ys, 1000, np.random.default_rng(3))
    assert [len(g) for g in got] == [len(k) for k in kept]


def test_estimate_draws_one_bootstrap_for_all_pairs(monkeypatch):
    calls = []
    inner = thermometry._bootstrap_slopes

    def counted(xs, ys, *args):
        calls.append(xs.shape)
        return inner(xs, ys, *args)

    monkeypatch.setattr(thermometry, "_bootstrap_slopes", counted)
    responses, levels = _noisy_responses(350, seed + 6)
    estimate_temperature(responses, levels, n_bootstrap=0)
    assert calls == []
    estimate_temperature(responses, levels, n_bootstrap=200, seed=3)
    assert calls == [(9, 700)]


def _fit_fields(fit):
    return [np.asarray(getattr(fit, k)) for k in ("slope", "intercept", "residual_rms", "ci95")]


def test_stacked_fit_equals_one_row_at_a_time():
    draws = [_noisy_responses(60, seed + 8 + k)[0].iq() for k in range(3)]
    for iq in (draws[0], np.stack(draws)):
        xs, ys = _pair_rows(iq)
        stacked = _fit_fields(deming_fit(xs, ys, n_bootstrap=0))
        n = xs.shape[-1]
        rows = [deming_fit(x, y, n_bootstrap=0) for x, y in zip(xs.reshape(-1, n),
                                                                  ys.reshape(-1, n))]
        for got, field in zip(stacked, zip(*map(_fit_fields, rows))):
            assert got.shape == xs.shape[:-1] + np.shape(field[0])
            np.testing.assert_array_equal(got, np.reshape(field, got.shape))


def test_stacked_fit_bootstrap_matches_per_resample_loop():
    xs, ys = _pair_rows(_noisy_responses(40, seed + 11)[0].iq())
    fit = deming_fit(xs, ys, n_bootstrap=300, rng=5)
    assert fit.ci95.shape == (9, 2)
    for samples, slope, ci in zip(bootstrap_pair_slopes_loop(xs, ys, 300, 5), fit.slope,
                                  fit.ci95):
        lo, hi = np.percentile(samples, [2.5, 97.5])
        np.testing.assert_allclose(ci, [min(lo, slope), max(hi, slope)], rtol=1e-12, atol=0.0)


def test_stacked_slope_names_the_degenerate_row():
    xs, ys = _pair_rows(np.stack([_noisy_responses(30, seed + 12 + k)[0].iq()
                                  for k in range(2)]))
    xs[1, 4] = 0.25
    with pytest.raises(DegenerateDataError, match=r"^row 1, 4: x series takes a single"):
        deming_slope(xs, ys)
    with pytest.raises(DegenerateDataError, match=r"^row 4: x series takes a single"):
        deming_slope(xs[1], ys[1])


def test_nine_difference_pairs_structure():
    # the pair rows equal the complex difference pairs of the oracle, bit for bit
    responses, _ = make_synthetic_responses()
    pairs = difference_pairs(responses)
    assert [(coef, direction) for *_, coef, direction in pairs] == list(thermometry._PAIR_TAGS)
    for coef in COEFFICIENTS:
        assert sorted(d for *_, c, d in pairs if c == coef) == ["ef", "ge", "gf"]
    draws = [make_synthetic_responses(t_mk=t, seed=s)[0] for t, s in ((120.0, 7), (60.0, 8))]
    stack = np.stack([r.iq() for r in draws])
    for got, ref in ((_pair_rows(responses.iq()), [responses]), (_pair_rows(stack), draws)):
        # a pair's fit points: I samples, then Q samples
        want = [np.array([[np.concatenate([pair[k].real, pair[k].imag])
                           for pair in difference_pairs(r)] for r in ref]) for k in (0, 1)]
        for rows, expected in zip(got, want):
            np.testing.assert_array_equal(rows, expected.reshape(rows.shape))


def test_pair_matrices_hold_the_slots_of_the_difference_pairs():
    # U and D: +1 and -1 at the numerator and denominator slots of each pair
    slots = list(_noisy_responses(3, seed)[0].as_dict())
    pairs = [pair for c in COEFFICIENTS for pair in DIFFERENCE_PAIRS[c]]
    for matrix, k in ((thermometry._PAIR_U, 0), (thermometry._PAIR_D, 1)):
        want = np.zeros((9, 6))
        for row, pair in enumerate(pairs):
            a, b = pair[k]
            want[row, slots.index(a)], want[row, slots.index(b)] = 1.0, -1.0
        np.testing.assert_array_equal(matrix, want)


def test_pair_moments_of_a_scatter_are_the_pair_rows_moments():
    # the repeated draws read the pairs' moments off the six traces' scatter
    iq = _noisy_responses(40, seed + 13)[0].iq()
    points = iq.reshape(6, -1)
    xc = points - points.mean(axis=-1, keepdims=True)
    scatter = (xc @ xc.T / points.shape[-1])[None]
    _, _, *want = _row_moments(*_pair_rows(iq))
    for got, ref in zip(_pair_moments(scatter), want):
        assert got.shape == (1, 9)
        np.testing.assert_allclose(got[0], ref, rtol=1e-12, atol=0.0)


# (x, y, the DegenerateDataError cause, or None for a series that fits)
DEMING_SERIES = {
    "x single-valued": ([0.3, 0.3, 0.3, 0.3], [1.0, 2.0, 0.5, 3.0], "x series"),
    "y single-valued": ([1.0, 2.0, 0.5, 3.0], [0.3, 0.3, 0.3, 0.3], "y series"),
    "zero covariance": ([1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], "uncorrelated"),
    "a line": ([1.0, 2.0, 0.5, 3.0], [0.6, 1.1, 0.2, 1.4], None),
    # no repeated values, yet a ninth of its resamples draw one point thrice
    "three points": ([0.1, 0.7, 0.3], [0.2, 0.5, 0.9], None),
}


@pytest.mark.parametrize("name", DEMING_SERIES)
def test_every_deming_fit_flags_the_same_rows(name):
    x, y, cause = DEMING_SERIES[name]
    x, y = np.array(x), np.array(y)

    def raises(xs, ys):
        try:
            deming_slope(xs, ys)
        except DegenerateDataError:
            return True
        return False

    if cause:
        with pytest.raises(DegenerateDataError, match=cause):
            deming_slope(x, y)
    def row_rule(xs, ys):
        _, _, sxx, syy, sxy = _row_moments(xs, ys)
        return _deming_rule(sxx, syy, sxy, _single_valued(xs) | _single_valued(ys))

    assert row_rule(x[None], y[None])[1].tolist() == [raises(x, y)] == [bool(cause)]
    # the bootstrap's resamples: the same indices as 300 size-n draws
    idx = np.random.default_rng(7).integers(0, len(x), size=(300, len(x)))
    slopes, flagged = row_rule(x[idx], y[idx])
    assert flagged.tolist() == [raises(x[i], y[i]) for i in idx]
    # every resample of a single-valued series is flagged; of the others, some
    assert flagged.any() and flagged.all() == (cause in ("x series", "y series"))
    kept = thermometry._bootstrap_slopes(x[None], y[None], 300, np.random.default_rng(7))[0]
    np.testing.assert_allclose(kept, slopes[~flagged], rtol=1e-12, atol=0.0)


def test_pair_slopes_match_population_algebra():
    responses, levels = make_synthetic_responses(t_mk=120.0)
    from tritherm.hilbert import thermal_populations

    p = thermal_populations(levels, 120.0)
    report = estimate_temperature(responses, levels)
    for (coef, _), value in zip(thermometry._PAIR_TAGS, report.pairs.slope):
        want = coefficient_from_populations(p, coef)
        assert abs(value - want) < 1e-10
    assert report.consistency < 1e-10


def test_estimate_recovers_synthetic_temperature():
    responses, levels = make_synthetic_responses(t_mk=120.0)
    report = estimate_temperature(responses, levels)
    for coef in COEFFICIENTS:
        assert abs(report.temperature(coef).t_mk - 120.0) < 0.01


@pytest.mark.parametrize("weights", ["inverse_variance", "mean"])
def test_aggregate_stack_equals_single_rows(weights):
    # a (k, 3, 3) stack aggregates bit for bit as its k rows and 3k
    # coefficients do one at a time; a zero half-width falls back to the
    # mean, which is every coefficient's rule when no pair CI has a width
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(0.05, 0.95, size=(5, 3, 3))
    half = rng.uniform(1e-4, 1e-2, size=(5, 3, 3))
    half[1, 0, 2] = 0.0
    half[3] = 0.0
    if weights == "mean":
        half[:] = 0.0
    value, width = _aggregate(slopes, half)
    assert value.shape == width.shape == (5, 3)
    for k in range(5):
        row = _aggregate(slopes[k], half[k])
        np.testing.assert_array_equal(row[0], value[k])
        np.testing.assert_array_equal(row[1], width[k])
        for j in range(3):
            s, h = slopes[k, j], half[k, j]
            v, w = _aggregate(s, h)
            assert (v, w) == (value[k, j], width[k, j])
            if not np.all(h > 0):
                assert (v, w) == (s.mean(), s.std(ddof=1) / np.sqrt(3))
            else:
                weights = 1.0 / h ** 2
                assert (v, w) == (np.sum(weights * s) / np.sum(weights),
                                  1.0 / (1.96 * np.sqrt(np.sum(weights))))


def test_aggregate_returns_a_standard_error_on_both_branches():
    # three pair CIs of half-width h combine, as independent 95% intervals,
    # to the half-width h / sqrt(3), a standard error of h / (1.96 sqrt(3)):
    # the unit of the unweighted branch, to which the caller applies 1.96 once
    h = 3e-3
    slopes = np.array([0.40, 0.41, 0.43])
    value, se = _aggregate(slopes, np.full(3, h))
    assert value == pytest.approx(slopes.mean(), rel=1e-15)
    assert se == pytest.approx(h / (1.96 * np.sqrt(3)), rel=1e-15)


def test_estimate_report_dict_keys():
    responses, levels = make_synthetic_responses()
    report = estimate_temperature(responses, levels, n_bootstrap=50, seed=3)
    d = report.as_dict()
    for coef in COEFFICIENTS:
        assert f"T_{coef}_mK" in d
        assert f"lambda_{coef}" in d
    assert len(d["pair_slopes"]) == 9
    for pair in d["pair_slopes"]:
        assert isinstance(pair["intercept"], float)
    assert "consistency_C_vs_AB" in d
    # the nine entries carry their (coefficient, direction) tags in
    # DIFFERENCE_PAIRS order and the report's pair fits bit for bit
    tags = [(c, direction) for c in COEFFICIENTS for _, _, direction in DIFFERENCE_PAIRS[c]]
    assert [(pair["coefficient"], pair["direction"]) for pair in d["pair_slopes"]] == tags
    fit = report.pairs
    for k, pair in enumerate(d["pair_slopes"]):
        assert pair["value"] == fit.slope[k] and pair["ci95"] == fit.ci95[k].tolist()
        assert pair["residual_rms"] == fit.residual_rms[k]
        assert pair["intercept"] == fit.intercept[k]


def test_sequence_responses_reject_mislabeled_slot():
    responses, _ = make_synthetic_responses()
    traces = responses.as_dict()
    swapped = dict(traces)
    swapped["x2"], swapped["y1"] = traces["y1"], traces["x2"]
    with pytest.raises(ValueError):
        SequenceResponses.from_dict(swapped)
    with pytest.raises(ValueError):
        SequenceResponses.from_dict({k: traces[k] for k in ("x0", "x1")})


@st.composite
def ordered_triples(draw):
    p_g = draw(st.floats(0.40, 0.97))
    split = draw(st.floats(0.60, 0.95))
    p_e = (1.0 - p_g) * split
    p_f = 1.0 - p_g - p_e
    assume(p_g - p_e > 1e-3 and p_e - p_f > 1e-3 and p_f > 1e-6)
    return Populations(p_g, p_e, p_f)


@settings(max_examples=200, deadline=None)
@given(p=ordered_triples())
def test_coefficient_identity(p):
    a = coefficient_from_populations(p, "A")
    b = coefficient_from_populations(p, "B")
    c = coefficient_from_populations(p, "C")
    assert abs(c - a * b) < 1e-12
    assert 0.0 < a < 1.0
    assert b > 0.0


@settings(max_examples=50, deadline=None)
@given(t_mk=st.floats(20.0, 800.0), coef=st.sampled_from(COEFFICIENTS))
def test_slope_temperature_round_trip(t_mk, coef):
    lv = LevelEnergies.from_frequencies(*ANCHOR)
    val = coefficient_vs_temperature(lv, t_mk, coef)
    est = _invert(coef, val, lv)
    assert abs(est.t_mk - t_mk) < 1e-4


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(0.05, 5.0), offset=st.floats(-2.0, 2.0))
def test_deming_recovers_exact_lines(slope, offset):
    x = np.linspace(-1.0, 1.0, 25)
    fit = deming_fit(x, slope * x + offset)
    assert abs(fit.slope - slope) < 1e-10
    assert abs(fit.intercept - offset) < 1e-10
