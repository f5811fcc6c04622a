import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import make_synthetic_responses
from oracles import coefficient_from_populations
from tritherm import thermometry
from tritherm.hilbert import LevelEnergies, Populations
from tritherm.thermometry import (
    T_BRACKET_MK,
    COEFFICIENTS,
    DIFFERENCE_PAIRS,
    DegenerateDataError,
    SlopeEstimate,
    SlopeOutOfRangeError,
    attainable_range,
    coefficient_vs_temperature,
    deming_fit,
    deming_slope,
    _invert_scalar,
    difference_pairs,
    estimate_temperature,
    invert_temperature,
)

seed = 20260312

ANCHOR = (6.74, 13.14)


def _slope(coef, value, half=1e-4):
    return SlopeEstimate(coef, None, value, (value - half, value + half), 0.0)


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
    est = invert_temperature(_slope("A", 0.9936), (5.7, 11.1))
    assert abs(est.t_mk - 54.244218513127876) < 1e-6
    assert abs(est.t_mk - 54.0) < 1.0

    est = invert_temperature(_slope("B", 0.1320), ANCHOR)
    assert abs(est.t_mk - 161.06712993672295) < 1e-6
    assert abs(est.t_mk - 161.0) < 2.0
    lo, hi = est.t_ci95_mk
    assert lo < est.t_mk < hi


def test_inversion_is_exact_round_trip():
    lv = LevelEnergies.from_frequencies(*ANCHOR)
    for coef in COEFFICIENTS:
        for t_true in (40.0, 120.0, 250.0, 700.0):
            val = coefficient_vs_temperature(lv, t_true, coef)
            est = invert_temperature(_slope(coef, val), lv)
            assert abs(est.t_mk - t_true) < 1e-5


def test_inversion_out_of_range():
    with pytest.raises(SlopeOutOfRangeError) as err:
        invert_temperature(_slope("A", 1.2), ANCHOR)
    assert "attainable range" in str(err.value)
    est = invert_temperature(_slope("A", 1.2), ANCHOR, clamp=True)
    assert est.t_mk == 1.0  # cold edge of the bracket
    est = invert_temperature(_slope("B", 0.9), ANCHOR, clamp=True)
    assert est.t_mk == 2000.0
    lo, hi = attainable_range(ANCHOR, "A")
    assert 0.0 < lo < hi < 1.0 + 1e-12


# temperatures across the inversion bracket, denser at the cold end
BRACKET_GRID = np.geomspace(1.0, 2000.0, 61)


@pytest.mark.parametrize("which", COEFFICIENTS)
def test_inversion_matches_brentq(which):
    for t_mk in BRACKET_GRID:
        value = coefficient_vs_temperature(ANCHOR, t_mk, which)
        got = _invert_scalar(ANCHOR, which, value, clamp=False)
        assert abs(coefficient_vs_temperature(ANCHOR, got, which) - value) <= 1e-10
        # below ~20 mK, 1 - A ~ exp(-h f_ge / k_B T) < 1e-7, so one ulp of A
        # spans more than 1e-8 mK and any two solvers may stop apart
        if which == "A" and t_mk < 20.0:
            continue
        ref = brentq(lambda t: coefficient_vs_temperature(ANCHOR, t, which) - value,
                     *T_BRACKET_MK, xtol=1e-9)
        assert abs(got - ref) <= 1e-8, (which, t_mk, got, ref)


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
                _invert_scalar(levels, which, value, clamp=False)
                assert len(calls) == 2, (levels, which, t_mk, len(calls))


# f_ge 3.5-8 GHz and f_gf / f_ge 1.67-2.0
DEVICES = ((3.5, 7.0), (3.5, 5.845), (5.0, 9.0), (8.0, 13.36), (8.0, 16.0))


def test_inversion_grid_over_devices(default_ops, wp_config):
    shipped = (default_ops.levels(), wp_config.system.build_operators().levels())
    for levels in shipped + DEVICES:
        for which in COEFFICIENTS:
            for t_mk in BRACKET_GRID:
                value = coefficient_vs_temperature(levels, t_mk, which)
                got = _invert_scalar(levels, which, value, clamp=False)
                assert abs(coefficient_vs_temperature(levels, got, which) - value) <= 1e-10
                # where 1 - A < 1e-7 (below ~20 mK at f_ge 6.74 GHz, ~24 mK at
                # 8 GHz) one ulp of A spans more than 1e-9 mK
                if which == "A" and 1.0 - value < 1e-7:
                    continue
                assert abs(got - t_mk) <= 1e-9, (levels, which, t_mk, got)


def test_inversion_guards_raise(monkeypatch):
    # a NaN slope never stops the Newton iteration, so the step cap raises
    with pytest.raises(RuntimeError, match="not converged"):
        _invert_scalar(ANCHOR, "B", float("nan"), clamp=True)
    value = coefficient_vs_temperature(ANCHOR, 150.0, "C")
    monkeypatch.setattr(thermometry, "_invert_scalar", lambda *args: 151.0)
    with pytest.raises(RuntimeError, match="inversion residual"):
        invert_temperature(_slope("C", value), ANCHOR)


def test_deming_exact_collinear():
    x = np.linspace(-1.0, 1.0, 41)
    fit = deming_fit(x, 0.37 * x + 0.05)
    assert abs(fit.slope - 0.37) < 1e-12
    assert abs(fit.intercept - 0.05) < 1e-12
    assert fit.residual_rms < 1e-12


def test_deming_axis_swap_reciprocal():
    # delta = 1 treats both axes symmetrically: swapping x and y inverts
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
    assert a.ci95 == b.ci95
    assert a.ci95[0] < a.slope < a.ci95[1]
    assert a.ci95[0] < 0.5 < a.ci95[1]


def test_deming_rejects_degenerate_data():
    with pytest.raises(DegenerateDataError):
        deming_fit(np.zeros(50), np.zeros(50))
    with pytest.raises(ValueError):
        deming_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        deming_fit(np.arange(5.0), np.arange(5.0), variance_ratio_delta=0.0)


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


def test_nine_difference_pairs_structure():
    responses, _ = make_synthetic_responses()
    pairs = difference_pairs(responses)
    assert len(pairs) == 9
    per_coef = {c: [] for c in COEFFICIENTS}
    for xs, ys, coef, direction in pairs:
        assert len(xs) == len(ys) == 350
        per_coef[coef].append(direction)
    for coef in COEFFICIENTS:
        assert sorted(per_coef[coef]) == ["ef", "ge", "gf"]


def test_pair_slopes_match_population_algebra():
    responses, levels = make_synthetic_responses(t_mk=120.0)
    from tritherm.hilbert import thermal_populations

    p = thermal_populations(levels, 120.0)
    report = estimate_temperature(responses, levels)
    for est in report.pair_slopes:
        want = coefficient_from_populations(p, est.coefficient)
        assert abs(est.value - want) < 1e-10
    assert report.consistency < 1e-10


def test_estimate_recovers_synthetic_temperature():
    responses, levels = make_synthetic_responses(t_mk=120.0)
    report = estimate_temperature(responses, levels)
    for coef in COEFFICIENTS:
        assert abs(report.temperature(coef).t_mk - 120.0) < 0.01
    # single-quadrature fit sees the same collinear geometry
    report_i = estimate_temperature(responses, levels, quadratures="I")
    for coef in COEFFICIENTS:
        assert abs(report_i.temperature(coef).t_mk - 120.0) < 0.01
    assert report.as_dict()["quadratures"] == "IQ"


def test_estimate_aggregation_modes():
    responses, levels = make_synthetic_responses(t_mk=90.0)
    a = estimate_temperature(responses, levels, aggregation="mean")
    b = estimate_temperature(responses, levels, aggregation="inverse_variance")
    for coef in COEFFICIENTS:
        assert abs(a.temperature(coef).t_mk - b.temperature(coef).t_mk) < 0.02
    with pytest.raises(ValueError):
        estimate_temperature(responses, levels, aggregation="median")


def test_estimate_report_dict_keys():
    responses, levels = make_synthetic_responses()
    d = estimate_temperature(responses, levels).as_dict()
    for coef in COEFFICIENTS:
        assert f"T_{coef}_mK" in d
        assert f"lambda_{coef}" in d
    assert len(d["pair_slopes"]) == 9
    for pair in d["pair_slopes"]:
        assert isinstance(pair["intercept"], float)
    assert "consistency_C_vs_AB" in d


def test_sequence_responses_reject_mislabeled_slot():
    responses, _ = make_synthetic_responses()
    traces = responses.as_dict()
    from tritherm.thermometry import SequenceResponses

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
    est = invert_temperature(_slope(coef, val), lv)
    assert abs(est.t_mk - t_mk) < 1e-4


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(0.05, 5.0), offset=st.floats(-2.0, 2.0))
def test_deming_recovers_exact_lines(slope, offset):
    x = np.linspace(-1.0, 1.0, 25)
    fit = deming_fit(x, slope * x + offset)
    assert abs(fit.slope - slope) < 1e-10
    assert abs(fit.intercept - offset) < 1e-10
