import dataclasses

import numpy as np
import pytest

from tritherm import pipeline

from oracles import apply_sequence_ideal
from tritherm.hilbert import thermal_populations
from tritherm.pipeline import estimate, run_batch, run_protocol, steady_point
from tritherm.pulses import compile_sequence
from tritherm.thermometry import COEFFICIENTS, estimate_temperature

LABELS = ("x0", "x1", "x2", "y0", "y1", "y2")


def test_noiseless_round_trip_all_temperatures(temperature_runs):
    # the bath temperature comes back within 2 mK from every coefficient
    for t_set, result in temperature_runs.items():
        report = estimate_temperature(result.noiseless_responses, result.levels)
        for coef in COEFFICIENTS:
            assert abs(report.temperature(coef).t_mk - t_set) < 2.0, (t_set, coef)


def test_noisy_estimates_stay_close(temperature_runs):
    for t_set, result in temperature_runs.items():
        report = estimate(result.responses, result.levels, result.config.protocol,
                          result.config.seed)
        for coef in COEFFICIENTS:
            assert abs(report.temperature(coef).t_mk - t_set) < 40.0


def test_result_carries_both_noisy_and_clean_responses(run_150):
    assert run_150.noisy
    noisy = run_150.responses.as_dict()
    clean = run_150.noiseless_responses.as_dict()
    for lab in LABELS:
        assert len(noisy[lab].t_ns) == len(clean[lab].t_ns)
        # same underlying signal, different by the injected noise only
        diff = noisy[lab].complex_vals() - clean[lab].complex_vals()
        assert 0.0 < np.std(diff.real) < 0.01


def test_full_traces_cover_probe_duration(run_150):
    cfg = run_150.config.readout
    for lab in LABELS:
        assert len(run_150.traces[lab].t_ns) == cfg.n_samples
        assert len(run_150.responses.as_dict()[lab].t_ns) == 350


def test_steady_state_populations_near_thermal(run_150):
    ref = thermal_populations(run_150.levels, 150.0)
    got = run_150.steady_populations.as_array()
    np.testing.assert_allclose(got, ref.as_array(), atol=1e-3)


def test_prepared_populations_follow_ideal_permutations(run_150):
    # dissipation during the gates moves populations by below a percent
    steady = run_150.steady_populations
    for lab in LABELS:
        ideal = apply_sequence_ideal(steady, compile_sequence(lab))
        got = run_150.prepared_populations[lab]
        np.testing.assert_allclose(got.as_array(), ideal.as_array(), atol=0.01)


def test_calibrations_recorded(run_150):
    assert set(run_150.calibrations) == {"ge", "ef"}
    for rep in run_150.calibrations.values():
        assert rep.transfer_probability >= 0.999


def test_norm_factor_and_timings(run_150):
    assert run_150.norm_factor > 0.0
    # the basis traces are normalized over their full length
    peak = max(np.max(np.abs(t.complex_vals())) for t in run_150.basis_traces.values())
    assert abs(peak - 1.0) < 1e-12
    for key in ("steady_state", "calibration", "sequences", "readout"):
        assert key in run_150.timings_s


def test_estimator_rerun_is_deterministic(run_150):
    args = (run_150.responses, run_150.levels, run_150.config.protocol, run_150.config.seed)
    a = estimate(*args).as_dict()
    b = estimate(*args).as_dict()
    assert a == b


def test_noiseless_flag_produces_identical_responses(wp_run):
    assert not wp_run.noisy
    noisy = wp_run.responses.as_dict()
    clean = wp_run.noiseless_responses.as_dict()
    for lab in LABELS:
        np.testing.assert_array_equal(noisy[lab].i_vals, clean[lab].i_vals)


def test_seed_controls_noise_only(temperature_runs, run_150):
    # two runs at the same bath differ only through the seeded noise draw;
    # the 150 mK run in the sweep used seed 150
    import dataclasses

    from tritherm.pipeline import run_protocol

    cfg = dataclasses.replace(run_150.config, seed=150)
    assert cfg == run_150.config  # fixture already ran with this seed
    repeat = run_protocol(cfg, calibrations=run_150.calibrations)
    for lab in LABELS:
        np.testing.assert_array_equal(
            repeat.responses.as_dict()[lab].i_vals,
            run_150.responses.as_dict()[lab].i_vals,
        )


def test_repeated_runs_do_the_same_eigendecompositions(default_config, monkeypatch):
    # nothing a run builds outlives it: a second run diagonalizes the same
    # matrices as the first
    shapes = []

    def counted(a, *args, _inner=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    work = []
    for _ in range(2):
        shapes.clear()
        pipeline.run_protocol(default_config, noiseless=True)
        work.append(list(shapes))
    assert work[0] == work[1] and len(work[0]) > 0


def _numbers(tree, path=""):
    """(path, value) for every leaf of a tree of dicts and lists."""
    if isinstance(tree, dict):
        for key, sub in tree.items():
            yield from _numbers(sub, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, sub in enumerate(tree):
            yield from _numbers(sub, f"{path}[{i}]")
    else:
        yield path, tree


def _assert_same_run(got, want):
    """A batched point against its run alone, within 1e-12 relative: traces,
    steady and prepared populations, norm factor and every field of the
    estimate report.  Values near zero (intercepts, trace samples) are held
    to 1e-12 of the unit trace peak."""
    def close(a, b, what):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=what)

    for kind in ("traces", "basis_traces"):
        for lab, tr in getattr(want, kind).items():
            other = getattr(got, kind)[lab]
            close(other.i_vals, tr.i_vals, f"{kind}[{lab}].I")
            close(other.q_vals, tr.q_vals, f"{kind}[{lab}].Q")
    assert list(got.prepared_populations) == list(want.prepared_populations)
    for lab, pops in want.prepared_populations.items():
        close(got.prepared_populations[lab].as_array(), pops.as_array(), f"prepared {lab}")
    close(got.steady_populations.as_array(), want.steady_populations.as_array(), "steady")
    close(got.norm_factor, want.norm_factor, "norm_factor")
    assert got.noisy == want.noisy and got.config == want.config
    reports = [dict(_numbers(estimate(r.responses, r.levels, r.config.protocol,
                                      r.config.seed).as_dict())) for r in (got, want)]
    assert reports[0].keys() == reports[1].keys()
    for key, value in reports[1].items():
        if isinstance(value, (str, bool)):
            assert reports[0][key] == value, key
        else:
            close(reports[0][key], value, key)


@pytest.fixture(scope="module")
def runs_alone(request, temperature_runs, calibrations, default_ops, wp_run):
    """Per shipped config: its operators, calibrations and four single-point
    runs, noisy on the default device (the session's temperature runs) and
    noiseless on the working point."""
    wp_cfg = wp_run.config
    wp_more = [run_protocol(dataclasses.replace(
        wp_cfg, dissipation=dataclasses.replace(wp_cfg.dissipation, bath_t_mk=t_mk)),
        noiseless=True, calibrations=wp_run.calibrations) for t_mk in (50.0, 100.0, 200.0)]
    return {
        "default": (default_ops, calibrations, list(temperature_runs.values()), False),
        "working_point": (wp_cfg.system.build_operators(), wp_run.calibrations,
                          [wp_run] + wp_more, True),
    }


@pytest.mark.parametrize("config_name", ["default", "working_point"])
@pytest.mark.parametrize("p", [2, 4])
def test_batch_matches_its_points_run_alone(runs_alone, config_name, p):
    ops, calibrations, alone, noiseless = runs_alone[config_name]
    points = [steady_point(r.config, ops) for r in alone[:p]]
    batch = run_batch(points, ops, calibrations, noiseless)
    assert len(batch) == p
    for got, want in zip(batch, alone):
        _assert_same_run(got, want)
    # each point times its own steady state, and every point the batch's stages
    assert [r.timings_s["steady_state"] for r in batch] == [pt.seconds for pt in points]
    for stage in ("calibration", "sequences", "readout"):
        assert len({r.timings_s[stage] for r in batch}) == 1


def test_batch_rejects_points_of_another_device(runs_alone, wp_run):
    ops, calibrations, alone, _ = runs_alone["default"]
    with pytest.raises(ValueError, match="^the points of a batch must share their system, "
                                         "protocol and readout blocks$"):
        run_batch([steady_point(alone[0].config, ops), steady_point(wp_run.config, ops)],
                  ops, calibrations)
    with pytest.raises(ValueError, match="^run_batch needs at least one point$"):
        run_batch([], ops, calibrations)
