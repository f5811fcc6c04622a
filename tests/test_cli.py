import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_synthetic_responses
from tritherm import cli, pipeline
from tritherm.cli import main
from tritherm.config import load_config, stream_seed
from tritherm.errorlab import MonteCarloSpec
from tritherm.hilbert import diagonalize_transmon
from tritherm.lindblad import (DissipationSpec, IntegrationError, SteadyStateError,
                               build_liouvillian)
from tritherm.pipeline import calibrate_transitions, estimate, run_protocol
from tritherm.pulses import SEQUENCE_LABELS
from tritherm.readout import add_noise, read_trace_csv, window, write_trace_csv
from tritherm.thermometry import SequenceResponses

seed = 20260312

# full protocol on a trimmed product space: same physics, fraction of the cost
MINI_CONFIG = {
    "system": {
        "transmon": {"ec_ghz": 0.36, "ej_max_ghz": 10.013},
        "resonator": {"fr_ghz": 7.75, "coupling_ghz": 0.018, "n_fock": 3,
                      "q_loaded": 3100.0},
    },
    "dissipation": {"gamma_eg_mhz": 0.03, "gamma_fe_mhz": 0.06, "bath_t_mk": 150.0},
    "readout": {"probe_duration_ns": 800.0, "window_start_ns": 150.0,
                "window_end_ns": 500.0, "noise_sigma": 0.002},
    "protocol": {"pulse_duration_ns": 40.0},
    "seed": 0,
}


@pytest.fixture(scope="module")
def mini_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return path


@pytest.fixture(scope="module")
def simulate_dir(tmp_path_factory, mini_config_path):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--config", str(mini_config_path), "--out", str(out)])
    assert rc == 0
    return out


def _write_synthetic(dirpath, t_mk=120.0, swap=None):
    responses, levels = make_synthetic_responses(t_mk=t_mk, n_samples=600)
    traces = responses.as_dict()
    if swap:
        a, b = swap
        # mislabel two sequences on disk: content of a under label b and
        # vice versa (the filenames follow the claimed labels)
        ta, tb = traces[a], traces[b]
        traces[a] = type(ta)(tb.t_ns, tb.i_vals, tb.q_vals, label=a)
        traces[b] = type(tb)(ta.t_ns, ta.i_vals, ta.q_vals, label=b)
    for lab, tr in traces.items():
        write_trace_csv(dirpath / f"{lab}.csv", [tr])
    return levels


def test_estimate_from_synthetic_traces(tmp_path, capsys):
    levels = _write_synthetic(tmp_path)
    out = tmp_path / "out"
    rc = main([
        "estimate", "--traces", str(tmp_path),
        "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
        "--window-start", "0", "--window-end", "600",
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "estimate.json").read_text())
    for coef in ("A", "B", "C"):
        assert abs(payload[f"T_{coef}_mK"] - 120.0) < 0.1
    assert payload["consistency_alarm"] is False
    assert "WARNING" not in capsys.readouterr().err


def test_estimate_flags_swapped_traces(tmp_path, capsys):
    # x2 <-> y1 keeps every difference pair collinear (slopes turn into
    # readout-geometry ratios that satisfy the same product identity), so
    # the tell is the cross-coefficient temperature disagreement
    levels = _write_synthetic(tmp_path, swap=("x2", "y1"))
    out = tmp_path / "out"
    rc = main([
        "estimate", "--traces", str(tmp_path),
        "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
        "--window-start", "0", "--window-end", "600",
        "--out", str(out), "--clamp",
    ])
    assert rc == 0
    payload = json.loads((out / "estimate.json").read_text())
    assert payload["consistency_alarm"] is True
    err = capsys.readouterr().err
    assert "WARNING" in err
    assert "disagree" in err


def test_estimate_error_paths(tmp_path, capsys):
    _write_synthetic(tmp_path)
    # no levels
    assert main(["estimate", "--traces", str(tmp_path),
                 "--out", str(tmp_path / "o1")]) == 2
    # missing trace directory
    assert main(["estimate", "--traces", str(tmp_path / "nope"),
                 "--f-ge", "6.74", "--f-gf", "13.14",
                 "--out", str(tmp_path / "o2")]) == 2
    # incomplete label set
    only_two = tmp_path / "partial"
    only_two.mkdir()
    responses, _ = make_synthetic_responses(n_samples=100)
    for lab in ("x0", "x1"):
        write_trace_csv(only_two / f"{lab}.csv", [responses.as_dict()[lab]])
    assert main(["estimate", "--traces", str(only_two),
                 "--f-ge", "6.74", "--f-gf", "13.14",
                 "--out", str(tmp_path / "o3")]) == 2
    # missing config file
    assert main(["simulate", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_estimate_config_honours_protocol_options(tmp_path):
    # noisy traces, so bootstrap CIs have widths that weight the pair slopes
    responses, _ = make_synthetic_responses(n_samples=600)
    for i, (lab, tr) in enumerate(responses.as_dict().items()):
        write_trace_csv(tmp_path / f"{lab}.csv", [add_noise(tr, 0.002, 1, i)])
    cfg = json.loads(json.dumps(MINI_CONFIG))
    cfg["protocol"].update(n_bootstrap=200)
    cfg_path = tmp_path / "bootstrap.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["estimate", "--traces", str(tmp_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    got = json.loads((out / "estimate.json").read_text())

    config = load_config(cfg_path)
    levels, _ = diagonalize_transmon(config.system.transmon)
    traces = {}
    for lab in SEQUENCE_LABELS:
        traces.update(read_trace_csv(tmp_path / f"{lab}.csv"))
    windowed = SequenceResponses.from_dict(
        {lab: window(tr, config.readout) for lab, tr in traces.items()})
    want = json.loads(json.dumps(estimate(windowed, levels, config.protocol,
                                          config.seed).as_dict()))
    for key in want:
        assert got[key] == want[key], key
    unweighted = estimate(windowed, levels, dataclasses.replace(config.protocol, n_bootstrap=0),
                          config.seed)
    assert unweighted.temperature("B").t_mk != got["T_B_mK"]


def test_estimate_window_flags_override_config(simulate_dir, mini_config_path,
                                               tmp_path, capsys):
    # the config's window is [150, 500) ns; the flags replace it
    base = ["estimate", "--traces", str(simulate_dir), "--config", str(mini_config_path)]
    out = tmp_path / "out"
    assert main(base + ["--window-start", "200", "--window-end", "600",
                        "--out", str(out)]) == 0
    assert json.loads((out / "estimate.json").read_text())["window_ns"] == [200.0, 600.0]
    assert main(base + ["--window-end", "300", "--out", str(out)]) == 0
    assert json.loads((out / "estimate.json").read_text())["window_ns"] == [150.0, 300.0]
    # an empty window, and one past the config's 800 ns probe
    for bad in (["--window-start", "600", "--window-end", "200"], ["--window-end", "900"]):
        assert main(base + bad + ["--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--bootstrap", "-3"], ["--window-start", "nan"],
                                   ["--window-end", "inf"]])
def test_estimate_rejects_invalid_estimator_flags(tmp_path, capsys, flags):
    levels = _write_synthetic(tmp_path)
    rc = main(["estimate", "--traces", str(tmp_path),
               "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
               "--window-start", "0", "--window-end", "600",
               "--out", str(tmp_path / "out")] + flags)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("with_config", [True, False], ids=["config", "no-config"])
@pytest.mark.parametrize("flags, message", [
    pytest.param(["--bootstrap", "-1"], "protocol: n_bootstrap must be non-negative",
                 id="bootstrap"),
    (["--window-start", "500", "--window-end", "400"],
     "readout: need 0 <= window_start < window_end <= probe_duration")])
def test_estimate_flag_errors_name_their_block(tmp_path, capsys, mini_config_path,
                                               with_config, flags, message):
    levels = _write_synthetic(tmp_path)
    source = (["--config", str(mini_config_path)] if with_config else
              ["--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}"])
    out = tmp_path / "out"
    assert main(["estimate", "--traces", str(tmp_path), "--out", str(out)]
                + source + flags) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("broken_row", [
    None,  # empty file
    "3,0.5,0.25",  # short row
    "3,abc,0.25,y2",  # non-numeric value
    "3,nan,0.25,y2",  # non-finite sample
    "3.5,0.5,0.25,y2",  # non-uniform time step
    # whole files: times that do not increase
    pytest.param(["5,0.5,0.25,y2"] * 3, id="constant_time"),
    pytest.param([f"{t},0.5,0.25,y2" for t in (3, 2, 1)], id="descending_time"),
    # a label over the csv module's field limit, then a short row (once exit 1)
    pytest.param(["0,0.5,0.25," + "x" * 200_000, "1,0.5"], id="overlong_label"),
])
def test_estimate_rejects_malformed_trace_file(tmp_path, capsys, broken_row):
    levels = _write_synthetic(tmp_path)
    rows = ["t_ns,I,Q,label"] + [f"{t},0.5,0.25,y2" for t in range(20)]
    if broken_row is None:
        rows = []
    elif isinstance(broken_row, list):
        rows = rows[:1] + broken_row
    else:
        rows[4] = broken_row
    (tmp_path / "y2.csv").write_text("".join(row + "\n" for row in rows))
    rc = main(["estimate", "--traces", str(tmp_path),
               "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
               "--window-start", "0", "--window-end", "20",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "y2.csv" in err


def test_unknown_subcommand():
    assert main(["teleport"]) == 2


def test_simulate_outputs(simulate_dir):
    names = {p.name for p in simulate_dir.iterdir()}
    expected = {"config.json", "basis.csv", "calibration.json",
                "populations.json", "estimate.json"}
    expected |= {f"{lab}.csv" for lab in ("x0", "x1", "x2", "y0", "y1", "y2")}
    assert expected <= names
    payload = json.loads((simulate_dir / "estimate.json").read_text())
    assert payload["bath_t_mk"] == 150.0
    assert payload["noiseless"] is False
    # mini system still lands within a few mK of the bath
    assert abs(payload["T_B_mK"] - 150.0) < 15.0
    cal = json.loads((simulate_dir / "calibration.json").read_text())
    assert cal["ge"]["transfer_probability"] >= 0.999
    assert cal["ef"]["transfer_probability"] >= 0.999
    pops = json.loads((simulate_dir / "populations.json").read_text())
    assert set(pops["prepared"]) == {"x0", "x1", "x2", "y0", "y1", "y2"}


def test_estimate_reproduces_simulate_report(simulate_dir, mini_config_path,
                                             tmp_path):
    # the simulate report is computed from the serialized traces, so an
    # estimate run over the same files and config must match bit for bit
    out = tmp_path / "re"
    rc = main(["estimate", "--traces", str(simulate_dir),
               "--config", str(mini_config_path), "--out", str(out)])
    assert rc == 0
    a = json.loads((simulate_dir / "estimate.json").read_text())
    b = json.loads((out / "estimate.json").read_text())
    for key in b:
        if key in a:
            assert a[key] == b[key], key


def test_simulate_deterministic(mini_config_path, simulate_dir, tmp_path):
    out = tmp_path / "again"
    rc = main(["simulate", "--config", str(mini_config_path), "--out", str(out)])
    assert rc == 0
    a = json.loads((simulate_dir / "estimate.json").read_text())
    b = json.loads((out / "estimate.json").read_text())
    assert a == b
    assert (out / "x1.csv").read_bytes() == (simulate_dir / "x1.csv").read_bytes()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    levels = _write_synthetic(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("TRITHERM_OUTPUT_DIR", str(env_out))
    rc = main(["estimate", "--traces", str(tmp_path),
               "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
               "--window-start", "0", "--window-end", "600"])
    assert rc == 0
    assert (env_out / "estimate.json").is_file()


def test_estimate_writes_to_the_config_output_dir(simulate_dir, tmp_path, monkeypatch):
    # without --out or the environment variable the config's output_dir wins over ./runs
    monkeypatch.delenv("TRITHERM_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINI_CONFIG, output_dir=str(tmp_path / "cfgout"))))
    assert main(["estimate", "--config", str(path), "--traces", str(simulate_dir)]) == 0
    assert (tmp_path / "cfgout" / "estimate.json").is_file()
    assert not (tmp_path / "runs").exists()


def test_montecarlo_outputs(tmp_path):
    args = ["montecarlo", "--experiments", "150", "--points", "120",
            "--lambda-points", "5", "--f-ge", "6.74", "--f-gf", "13.14",
            "--seed", "5", "--out", str(tmp_path / "mc")]
    assert main(args) == 0
    bias = (tmp_path / "mc" / "bias_curve.csv").read_text().splitlines()
    assert bias[0].rstrip("\r") == "lambda,mean_fit,ci_low,ci_high"
    assert len(bias) == 6
    disc = (tmp_path / "mc" / "discrepancy.csv").read_text().splitlines()
    assert disc[0].rstrip("\r") == "T_mK,dT_A_mK,dT_B_mK,dT_C_mK"
    # seeded rerun is byte-identical
    assert main(["montecarlo", "--experiments", "150", "--points", "120",
                 "--lambda-points", "5", "--f-ge", "6.74", "--f-gf", "13.14",
                 "--seed", "5", "--out", str(tmp_path / "mc2")]) == 0
    assert ((tmp_path / "mc" / "bias_curve.csv").read_bytes()
            == (tmp_path / "mc2" / "bias_curve.csv").read_bytes())


@pytest.mark.parametrize("anchor", [
    ["--f-ge", "0"], ["--f-gf", "-13.14"], ["--experiments", "50"],
    ["--lambda-points", "0"], ["--lambda-min", "1", "--lambda-max", "0.01"],
    ["--repeats", "5"]])
def test_montecarlo_rejects_invalid_anchor(tmp_path, capsys, anchor):
    rc = main(["montecarlo", "--experiments", "150", "--points", "120",
               "--lambda-points", "5", "--f-ge", "6.74", "--f-gf", "13.14",
               "--out", str(tmp_path / "mc")] + anchor)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "mc").exists()


@pytest.mark.parametrize("flags, message", [
    (["--sigma", "nan"], "montecarlo: noise_sigma must be a finite number, got nan"),
    (["--span", "nan"], "montecarlo: x_span must be a finite number, got nan"),
    (["--experiments", "50"], "montecarlo: n_experiments must be at least 100"),
    (["--points", "2"], "montecarlo: n_points must be at least 3")])
def test_montecarlo_spec_errors_name_their_block(tmp_path, capsys, flags, message):
    # NaN once passed the spec's checks and failed later as a CI error
    out = tmp_path / "mc"
    assert main(["montecarlo", "--out", str(out)] + flags) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_spec_defaults_are_the_dataclass_defaults(tmp_path):
    out = tmp_path / "mc"
    assert main(["montecarlo", "--experiments", "100", "--lambda-points", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    spec = MonteCarloSpec(n_experiments=100, seed=stream_seed(2, "montecarlo"))
    assert json.loads((out / "mc_stats.json").read_text())["spec"] == dataclasses.asdict(spec)


@pytest.mark.parametrize("repeats", ["1", "-2"])
def test_montecarlo_rejects_too_few_repeats(mini_config_path, tmp_path, capsys,
                                            monkeypatch, repeats):
    # one draw has no spread: rejected before the bias study or any output
    monkeypatch.setattr(cli, "slope_bias_study", None)
    rc = main(["montecarlo", "--config", str(mini_config_path), "--repeats", repeats,
               "--out", str(tmp_path / "mc")])
    assert rc == 2
    assert "--repeats must be 0 (off) or at least 2" in capsys.readouterr().err
    assert not (tmp_path / "mc").exists()


def test_sweep_bath_points_and_failure_rows(mini_config_path, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(mini_config_path),
               "--bath-mk", "120,-5", "--noiseless", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    header = rows[0].rstrip("\r").split(",")
    assert header[0] == "control" and "T_A_mK" in header and "error" in header
    good = rows[1].rstrip("\r").split(",")
    assert abs(float(good[header.index("T_A_mK")]) - 120.0) < 10.0
    assert good[header.index("error")] == ""
    bad = rows[2].rstrip("\r").split(",")
    assert bad[header.index("error")] == "ConfigError: dissipation: bath_t_mk must be positive"
    # exactly one of bath/flux, and a non-empty list, must be given; the
    # usage error leaves no output directory behind
    for points in ([], ["--bath-mk", "100", "--flux", "0.0"], ["--bath-mk", ","]):
        fresh = tmp_path / "sweep-usage"
        assert main(["sweep", "--config", str(mini_config_path),
                     "--out", str(fresh)] + points) == 2
        assert not fresh.exists()


@pytest.mark.parametrize("points, n_calibrations", [
    (["--bath-mk", "100,120"], 1), (["--flux", "0.0,0.05"], 2)])
def test_sweep_calibrates_once_per_device(mini_config_path, tmp_path, monkeypatch,
                                          points, n_calibrations):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return calibrate_transitions(*args, **kwargs)

    monkeypatch.setattr(cli, "calibrate_transitions", counting)
    assert main(["sweep", "--config", str(mini_config_path), "--noiseless",
                 "--out", str(tmp_path / "sweep")] + points) == 0
    assert len(calls) == n_calibrations
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.rstrip("\r").endswith(",") for row in rows)


def test_sweep_point_matches_a_fresh_run(mini_config_path, tmp_path):
    # the 150 mK point plays the pulse slices calibrated for the 120 mK one,
    # and writes what a run that calibrates afresh gives
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(mini_config_path), "--bath-mk", "120,150",
                 "--noiseless", "--out", str(out)]) == 0
    header, _, row = (line.rstrip("\r").split(",")
                      for line in (out / "sweep.csv").read_text().splitlines())
    cfg = cli._point_config(load_config(mini_config_path), True, 150.0, 1)
    result = run_protocol(cfg, noiseless=True)
    report = estimate(result.responses, result.levels, cfg.protocol, cfg.seed)
    want = {"control": 150.0, "consistency": report.consistency}
    for est in report.estimates:
        want[f"T_{est.coefficient}_mK"] = est.t_mk
        want[f"T_{est.coefficient}_ci_low_mK"], want[f"T_{est.coefficient}_ci_high_mK"] = \
            est.t_ci95_mk
    assert row[header.index("error")] == ""
    assert {k: row[header.index(k)] for k in want} == {k: f"{v:.12g}" for k, v in want.items()}


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def test_noiseless_working_point_sweep_matches_its_golden_csv(tmp_path):
    # sweep_working_point_50_200mK.csv holds the sweep as written when each
    # bath point was simulated on its own; the batched sweep must write the
    # same numbers, within the golden file's noiseless tolerance
    repo = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(repo / "configs" / "working_point.json"),
                 "--bath-mk", "50,200", "--noiseless", "--out", str(out)]) == 0
    rtol = json.loads((GOLDEN_DIR / "outputs.json").read_text())["relative_tolerance"]["noiseless"]
    got, want = ([line.split(",") for line in path.read_text().splitlines()]
                 for path in (out / "sweep.csv", GOLDEN_DIR / "sweep_working_point_50_200mK.csv"))
    assert got[0] == want[0] and len(got) == len(want) == 3
    for row, ref in zip(got[1:], want[1:]):
        assert row[0] == ref[0] and row[-1] == ref[-1] == ""
        np.testing.assert_allclose([float(v) for v in row[1:-1]],
                                   [float(v) for v in ref[1:-1]], rtol=rtol, atol=0.0)


def _sweep_rows(out):
    header, *rows = [line.rstrip("\r").split(",") for line in
                     (out / "sweep.csv").read_text().splitlines()]
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize("case", ["config", "steady_state", "inside_batch"])
def test_sweep_keeps_the_other_points_when_one_fails(mini_config_path, tmp_path, monkeypatch,
                                                     capsys, case):
    # the clean sweep's rows are what the failing sweeps must keep for the
    # good points; a point that fails before its batch (its config, its
    # steady state) leaves the batch to the others, and a failure inside a
    # batch reruns it point by point
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", str(mini_config_path), "--bath-mk", "50,150,200",
                 "--noiseless", "--out", str(clean)]) == 0
    want = _sweep_rows(clean)
    capsys.readouterr()

    batches = []

    def counted(points, *args, _inner=cli.run_batch):
        batches.append([pt.config.dissipation.bath_t_mk for pt in points])
        return _inner(points, *args)

    monkeypatch.setattr(cli, "run_batch", counted)
    points = "50,-5,200" if case == "config" else "50,150,200"
    if case == "steady_state":
        calls = []

        def failing(liou, _inner=pipeline.steady_state):
            calls.append(liou)
            if len(calls) == 2:
                raise SteadyStateError("forced steady-state failure")
            return _inner(liou)

        monkeypatch.setattr(pipeline, "steady_state", failing)
        error, ran = "SteadyStateError: forced steady-state failure", [[50.0, 200.0]]
    elif case == "inside_batch":
        def failing(rho_ss, seqs, lious, *args, _inner=pipeline.prepare_sequences, **kwargs):
            if any(liou.occupations == bad.occupations for liou in lious):
                raise IntegrationError("forced failure inside the batch")
            return _inner(rho_ss, seqs, lious, *args, **kwargs)

        bad = build_liouvillian(load_config(mini_config_path).system.build_operators(),
                                DissipationSpec(gamma_eg_mhz=0.03, gamma_fe_mhz=0.06,
                                                bath_t_mk=150.0))
        monkeypatch.setattr(pipeline, "prepare_sequences", failing)
        error = "IntegrationError: forced failure inside the batch"
        ran = [[50.0, 150.0, 200.0], [50.0], [150.0], [200.0]]
    else:
        error, ran = "ConfigError: dissipation: bath_t_mk must be positive", [[50.0, 200.0]]
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(mini_config_path), "--bath-mk", points,
                 "--noiseless", "--out", str(out)]) == 0
    assert batches == ran
    got = _sweep_rows(out)
    assert [row["control"] for row in got] == points.split(",")
    assert got[1]["error"] == error and got[1]["T_A_mK"] == ""
    assert got[0] == want[0] and got[2] == want[2]
    captured = capsys.readouterr()
    assert f"  point {float(points.split(',')[1])}: FAILED ({error})" in captured.err
    assert "sweep: 3 points (1 failed)" in captured.out


def test_cli_exposes_benchmarked_names():
    # the benchmark hooks these by their tritherm.cli attribute names
    for name in ("load_config", "run_protocol", "calibrate_transitions", "read_trace_csv",
                 "write_trace_csv", "slope_bias_study", "temperature_discrepancy"):
        assert callable(getattr(cli, name)), name


def test_cli_calls_the_benchmark_counted_functions(tmp_path, monkeypatch):
    # the benchmark counts calls of errorlab._fit_slope (montecarlo, one per
    # slope point), and of thermometry.deming_fit and thermometry.deming_slope
    # (estimate), through these module attributes; an estimate fits its nine
    # pair rows, bootstrap included, in one deming_fit call making one
    # deming_slope call
    from tritherm import errorlab, thermometry

    calls = {"_fit_slope": 0, "deming_fit": 0, "deming_slope": 0}
    for module, name in ((errorlab, "_fit_slope"), (thermometry, "deming_fit"),
                         (thermometry, "deming_slope")):
        def counted(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main(["montecarlo", "--experiments", "100", "--lambda-points", "3",
                 "--out", str(tmp_path / "mc")]) == 0
    assert calls["_fit_slope"] >= 1
    (tmp_path / "traces").mkdir()
    levels = _write_synthetic(tmp_path / "traces")
    assert main(["estimate", "--traces", str(tmp_path / "traces"),
                 "--f-ge", f"{levels.f_ge_ghz}", "--f-gf", f"{levels.f_gf_ghz}",
                 "--window-start", "0", "--window-end", "600", "--bootstrap", "20",
                 "--out", str(tmp_path / "est")]) == 0
    assert calls["deming_fit"] == calls["deming_slope"] == 1


def test_calibrate_subcommand(mini_config_path, tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--config", str(mini_config_path),
               "--duration", "40", "--out", str(out)])
    assert rc == 0
    cal = json.loads((out / "calibration.json").read_text())
    assert set(cal) == {"ge", "ef"}
    for rep in cal.values():
        assert rep["transfer_probability"] >= 0.999
        assert rep["duration_ns"] == 40.0


def test_calibrate_rejects_out_of_range_duration(mini_config_path, tmp_path, capsys):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--config", str(mini_config_path),
               "--duration", "30", "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_duration_error_names_its_block(mini_config_path, tmp_path, capsys):
    # calibrate needs --config, so without one the duration is never applied
    out = tmp_path / "cal"
    for source, message in (
            (["--config", str(mini_config_path)],
             "protocol: pulse_duration_ns must lie in [40, 200]"),
            ([], "this command needs --config pointing at a run config")):
        assert main(["calibrate", "--duration", "30", "--out", str(out)] + source) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, block, key, value, message", [
    ("estimate", "protocol", "n_bootstrap", 2.5,
     "protocol: n_bootstrap must be an integer, got 2.5"),
    ("calibrate", "system.transmon", "n_transmon_levels", 3.5,
     "system.transmon: n_transmon_levels must be an integer, got 3.5"),
])
def test_config_value_of_the_wrong_type_is_a_config_error(simulate_dir, tmp_path, capsys,
                                                          command, block, key, value, message):
    # a float in an integer field once ran on and stopped on a TypeError
    data = json.loads(json.dumps(MINI_CONFIG))
    target = data
    for name in block.split("."):
        target = target[name]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    extra = ["--traces", str(simulate_dir)] if command == "estimate" else []
    assert main([command, "--config", str(path), "--out", str(out)] + extra) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def _assert_retired_keys_rejected(simulate_dir, tmp_path, capsys, retired):
    # the config.json that simulate wrote while the ``retired`` protocol keys existed
    data = json.loads((simulate_dir / "config.json").read_text())
    data["protocol"].update(retired)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    keys = ", ".join(f"protocol.{k}" for k in sorted(retired))
    for command in ("simulate", "estimate"):
        out = tmp_path / command
        extra = ["--traces", str(simulate_dir)] if command == "estimate" else []
        assert main([command, "--config", str(path), "--out", str(out)] + extra) == 2
        assert f"config error: unknown key(s) {keys}\n" in capsys.readouterr().err
        assert not out.exists()


def test_config_with_the_retired_aggregation_key_is_rejected(simulate_dir, tmp_path, capsys):
    _assert_retired_keys_rejected(simulate_dir, tmp_path, capsys,
                                  {"aggregation": "inverse_variance"})


def test_config_with_the_retired_estimator_keys_is_rejected(simulate_dir, tmp_path, capsys):
    _assert_retired_keys_rejected(simulate_dir, tmp_path, capsys,
                                  {"delta": 1.0, "quadratures": "IQ"})


@pytest.mark.parametrize("command", ["simulate", "estimate", "sweep", "montecarlo"])
def test_retired_estimator_flags_are_unrecognized(command, capsys):
    required = ["--traces", "runs"] if command == "estimate" else []
    for flag in ("--delta", "--quadratures", "--abscissa"):
        assert main([command, flag, "1"] + required) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed", [
    (["simulate", "--config", "{config}", "--seed", "-1"], -1),
    (["simulate", "--config", "{negative}"], -1),
    (["calibrate", "--config", "{config}", "--seed", "-1"], -1),
    (["sweep", "--config", "{config}", "--bath-mk", "100", "--seed", "-1"], -1),
    (["estimate", "--config", "{negative}", "--traces", "{traces}"], -1),
    (["estimate", "--traces", "{traces}", "--f-ge", "4.98", "--f-gf", "9.51", "--seed", "-1"],
     -1),
    (["montecarlo", "--seed", "-3"], -3),
])
def test_negative_seed_exits_2_before_any_output(simulate_dir, mini_config_path, tmp_path,
                                                 capsys, argv, seed):
    # numpy's SeedSequence once stopped these mid-run with exit 1, after the
    # output directory was made; sweep marked every point FAILED and exited 0
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({**MINI_CONFIG, "seed": -1}))
    paths = {"config": mini_config_path, "negative": negative, "traces": simulate_dir}
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert f"config error: seed must be non-negative, got {seed}\n" in capsys.readouterr().err
    assert not out.exists()


# every command in one process on the default device cut to n_fock 2 (the
# 144 x 144 composite): the package must run without importing scipy, so a
# fresh process pays no scipy import, neither at start-up nor on first use
COLD_START_SCRIPT = """
import json, pathlib, sys
from tritherm.cli import main

config, out = sys.argv[1], pathlib.Path(sys.argv[2])
runs = [
    ["simulate", "--config", config, "--seed", "1", "--out", out / "sim"],
    ["sweep", "--config", config, "--bath-mk", "100", "--noiseless", "--out", out / "sweep"],
    ["calibrate", "--config", config, "--out", out / "cal"],
    ["estimate", "--config", config, "--traces", out / "sim", "--out", out / "est"],
    ["montecarlo", "--experiments", "100", "--points", "120", "--lambda-points", "3",
     "--out", out / "mc"],
]
codes = [main([str(a) for a in argv]) for argv in runs]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_commands_run_without_scipy(tmp_path):
    repo = pathlib.Path(__file__).resolve().parents[1]
    data = json.loads((repo / "configs" / "default.json").read_text())
    data["system"]["resonator"]["n_fock"] = 2
    config = tmp_path / "reduced.json"
    config.write_text(json.dumps(data))
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"),
                                               os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, str(config),
                          str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=pythonpath),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["scipy"] == []
