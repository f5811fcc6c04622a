"""Batch front-end: simulate | estimate | montecarlo | sweep | calibrate.

Every command reads a strict JSON config (where it needs one), derives all
randomness from the master seed via named substreams, and writes plot-ready
CSV/JSON artifacts into one output directory.  Output location precedence:
--out flag, then TRITHERM_OUTPUT_DIR, then the config's output_dir, then
./runs.  Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from itertools import groupby
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .config import (ConfigError, ProtocolConfig, RunConfig, load_config, stream_seed,
                     with_changes)
from .errorlab import (
    MonteCarloSpec,
    repeated_measurement_stats,
    slope_bias_study,
    temperature_discrepancy,
)
from .hilbert import LevelEnergies, diagonalize_transmon
from .pipeline import (calibrate_transitions, estimate, run_batch, run_protocol, steady_point,
                       windowed_sequences)
from .pulses import SEQUENCE_LABELS
# simulate writes through write_trace_files; perfbench hooks write_trace_csv here
from .readout import ReadoutConfig, read_trace_csv, write_trace_csv, write_trace_files
from .thermometry import EstimateReport

OUTPUT_ENV_VAR = "TRITHERM_OUTPUT_DIR"
CONSISTENCY_ALARM = 0.05
TEMPERATURE_SPREAD_ALARM = 0.25
# bath points of one device simulated as one batch; at 8 a batch was still
# faster per point than at 4, and the cap bounds the readout's 64-row buffer
# at 0.8 MB per point on the shipped composite
SWEEP_BATCH = 8


def _resolve_output_dir(args, config: Optional[RunConfig]) -> Path:
    out = Path(args.out or os.environ.get(OUTPUT_ENV_VAR)
               or (config.output_dir if config else None) or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


# command-line flag -> field of the block it changes; a flag left unset
# (None) keeps the block's value, so a report from reloaded traces matches
# the in-process one
PROTOCOL_FLAGS = {"bootstrap": "n_bootstrap", "clamp": "clamp_out_of_range",
                  "duration": "pulse_duration_ns"}
MONTECARLO_FLAGS = {"true_slope": "true_slope", "experiments": "n_experiments",
                    "sigma": "noise_sigma", "span": "x_span", "points": "n_points",
                    "fit_method": "fit_method"}


def _flags(args, table: dict) -> dict:
    return {field: getattr(args, flag) for flag, field in table.items()
            if getattr(args, flag, None) is not None}


def _load_run_config(args, required: bool = True) -> Optional[RunConfig]:
    """The --config run config with --seed and the protocol flags applied;
    None when the command can do without one and none was given."""
    if not args.config:
        if required:
            raise ConfigError("this command needs --config pointing at a run config")
        if (args.seed or 0) < 0:  # RunConfig's rule, for a seed given without a config
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        return None
    changes = {"protocol": _flags(args, PROTOCOL_FLAGS)}
    if args.seed is not None:
        changes["seed"] = args.seed
    return with_changes(load_config(args.config), changes)


def _levels_from_args(args, config: Optional[RunConfig]) -> LevelEnergies:
    """Levels for estimation-only commands: from the config's transmon when
    given, else from explicit --f-ge/--f-gf anchors."""
    if config is not None:
        levels, _ = diagonalize_transmon(config.system.transmon)
        return levels
    if args.f_ge is None or args.f_gf is None:
        raise ConfigError("need either --config or both --f-ge and --f-gf")
    try:
        return LevelEnergies.from_frequencies(args.f_ge, args.f_gf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_table(path: Path, columns, rows) -> None:
    """CSV with a header; numbers at 12 significant digits, text as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([v if isinstance(v, str) else f"{v:.12g}" for v in row] for row in rows)


def _print_report(report: EstimateReport) -> None:
    for est in report.estimates:
        lo, hi = est.t_ci95_mk
        print(f"  T_{est.coefficient} = {est.t_mk:7.2f} mK"
              f"  (lambda = {est.slope:.6f}, CI [{lo:.2f}, {hi:.2f}] mK)")
    print(f"  consistency |C - A*B|/C = {report.consistency:.3e}")


def _alarm_if_inconsistent(report: EstimateReport) -> bool:
    """Loud sanity check on the three estimates.

    Mislabeled traces can leave C = A*B intact (the swap maps every pair
    slope to a readout-geometry ratio and those obey the same identity), so
    the slope-level check is backed by cross-coefficient temperature
    agreement: geometry ratios invert to wildly different temperatures.
    """
    alarm = report.consistency > CONSISTENCY_ALARM
    if alarm:
        print(
            f"WARNING: consistency |C - A*B|/C = {report.consistency:.3f} exceeds "
            f"{CONSISTENCY_ALARM}; difference clouds are not collinear (swapped or "
            f"contaminated traces show up as ellipses)",
            file=sys.stderr,
        )
    ts = [est.t_mk for est in report.estimates]
    spread = (max(ts) - min(ts)) / (sum(ts) / len(ts))
    if spread > TEMPERATURE_SPREAD_ALARM:
        alarm = True
        print(
            f"WARNING: coefficient thermometers disagree: T_A/T_B/T_C = "
            f"{ts[0]:.1f}/{ts[1]:.1f}/{ts[2]:.1f} mK (relative spread "
            f"{spread:.2f} > {TEMPERATURE_SPREAD_ALARM}); check trace labels "
            f"and fit intercepts",
            file=sys.stderr,
        )
    return alarm


def _collect_traces(path: Path, files: Optional[List[Path]] = None) -> Dict:
    """Labelled traces from ``files``, by default every CSV under ``path``
    (or ``path`` itself when it is a file); all six sequences must be there."""
    if files is None:
        if not path.exists():
            raise ConfigError(f"trace path not found: {path}")
        files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
        if not files:
            raise ConfigError(f"no CSV files under {path}")
    traces: Dict = {}
    for f in files:
        try:
            found = read_trace_csv(f)
        except ValueError as exc:  # the message names the file and line
            raise ConfigError(f"malformed trace file {exc}") from exc
        for label, trace in found.items():
            if label in traces and label in SEQUENCE_LABELS:
                raise ConfigError(f"duplicate trace label {label!r} (again in {f.name})")
            traces[label] = trace
    missing = [lab for lab in SEQUENCE_LABELS if lab not in traces]
    if missing:
        raise ConfigError(f"missing sequence trace(s) {', '.join(missing)} under {path}")
    return traces


def _estimate_report(traces: Dict, readout: ReadoutConfig, levels: LevelEnergies,
                     protocol: ProtocolConfig, seed: Optional[int]):
    """Window the six sequence traces and estimate; returns the report and
    its ``estimate.json`` payload, alarm included."""
    try:
        responses = windowed_sequences(traces, readout)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = estimate(responses, levels, protocol, seed)
    payload = report.as_dict()
    payload["consistency_alarm"] = _alarm_if_inconsistent(report)
    return report, payload


def cmd_simulate(args) -> int:
    config = _load_run_config(args)
    out = _resolve_output_dir(args, config)
    result = run_protocol(config, noiseless=args.noiseless)
    _write_json(out / "config.json", config.as_dict())
    files = {out / f"{label}.csv": [result.traces[label]] for label in SEQUENCE_LABELS}
    files[out / "basis.csv"] = list(result.basis_traces.values())
    write_trace_files(files)
    _write_json(out / "calibration.json",
                {t: r.as_dict() for t, r in result.calibrations.items()})
    _write_json(out / "populations.json", {
        "steady": dataclasses.asdict(result.steady_populations),
        "prepared": {k: dataclasses.asdict(v) for k, v in result.prepared_populations.items()},
        "timings_s": result.timings_s,
        "norm_factor": result.norm_factor,
    })

    # estimate from the serialized traces, so a later `estimate` run on these
    # files reproduces this report bit for bit
    traces = _collect_traces(out, [out / f"{label}.csv" for label in SEQUENCE_LABELS])
    report, payload = _estimate_report(traces, config.readout, result.levels,
                                       config.protocol, config.seed)
    payload["bath_t_mk"] = config.dissipation.bath_t_mk
    payload["noiseless"] = not result.noisy
    _write_json(out / "estimate.json", payload)
    print(f"simulate: bath {config.dissipation.bath_t_mk} mK "
          f"({'noiseless' if not result.noisy else f'noise {config.readout.noise_sigma}'}) "
          f"-> {out}")
    _print_report(report)
    return 0


def cmd_estimate(args) -> int:
    config = _load_run_config(args, required=False)
    levels = _levels_from_args(args, config)
    traces = _collect_traces(Path(args.traces))
    changes = {k: v for k, v in (("window_start_ns", args.window_start),
                                 ("window_end_ns", args.window_end)) if v is not None}
    if config is None:  # the default readout block, its probe long enough for the window
        changes["probe_duration_ns"] = max(args.window_end or 0.0, 2000.0)
    readout = with_changes(config.readout if config else ReadoutConfig(), changes, "readout")
    protocol = (config.protocol if config else
                with_changes(ProtocolConfig(), _flags(args, PROTOCOL_FLAGS), "protocol"))
    seed = config.seed if config else args.seed or 0
    report, payload = _estimate_report(traces, readout, levels, protocol, seed)
    out = _resolve_output_dir(args, config)
    _write_json(out / "estimate.json", payload)
    print(f"estimate: {args.traces} -> {out / 'estimate.json'}")
    _print_report(report)
    return 0


def cmd_montecarlo(args) -> int:
    if args.repeats < 0 or args.repeats == 1:
        raise ConfigError(f"--repeats must be 0 (off) or at least 2, got {args.repeats}")
    if args.repeats > 0 and not args.config:
        raise ConfigError("--repeats needs --config (full pipeline simulation)")
    config = _load_run_config(args, required=False)
    levels = _levels_from_args(args, config)
    seed = config.seed if config else args.seed or 0
    spec = with_changes(MonteCarloSpec(seed=stream_seed(seed, "montecarlo")),
                        _flags(args, MONTECARLO_FLAGS), "montecarlo")
    try:
        grid = np.linspace(args.lambda_min, args.lambda_max, args.lambda_points)
        report = slope_bias_study(spec, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _resolve_output_dir(args, config)
    _write_table(out / "bias_curve.csv", ["lambda", "mean_fit", "ci_low", "ci_high"],
                 zip(report.lambda_grid, report.mean_fit, report.ci_low, report.ci_high))
    curves = temperature_discrepancy(report, levels)
    _write_table(out / "discrepancy.csv", ["T_mK", "dT_A_mK", "dT_B_mK", "dT_C_mK"],
                 zip(curves.t_mk, *curves.dt_mk.T))

    stats = {
        "spec": dataclasses.asdict(spec),
        "n_failures": report.n_failures,
        "bias_at_true_slope": float(report.fitted_slope_at(spec.true_slope) - spec.true_slope)
        if grid[0] <= spec.true_slope <= grid[-1] else None,
        "n_skipped_inversions": curves.n_skipped,
    }

    if args.repeats > 0:
        result = run_protocol(config, noiseless=True)
        rep = repeated_measurement_stats(
            result.noiseless_responses, result.levels,
            n_runs=args.repeats,
            noise_sigma=config.readout.noise_sigma,
            seed=stream_seed(seed, "montecarlo", 1),
            clamp=config.protocol.clamp_out_of_range,
        )
        stats["repeated"] = rep.as_dict()
        _write_table(out / "repeated_cdf.csv", ["coefficient", "T_mK", "cdf"],
                     [(c, v, p) for c in ("A", "B", "C") for v, p in zip(*rep.cdf(c))])

    _write_json(out / "mc_stats.json", stats)
    print(f"montecarlo: {len(grid)} slope points x {spec.n_experiments} experiments -> {out}")
    if stats["bias_at_true_slope"] is not None:
        print(f"  mean bias at lambda={spec.true_slope}: {stats['bias_at_true_slope']:+.3e}")
    return 0


def _parse_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc


def _point_config(config: RunConfig, sweep_bath: bool, value: float, index: int) -> RunConfig:
    """The run config of sweep point ``index``: its bath temperature or its
    flux, and its own noise seed."""
    point = ({"dissipation": {"bath_t_mk": value}} if sweep_bath else
             {"system": {"transmon": {"flux_quantum_fraction": value}}})
    return with_changes(config, {**point, "seed": stream_seed(config.seed, "noise", 100 + index)})


def _run_sweep_batch(batch, ops, calibrations, noiseless: bool) -> list:
    """The ``run_batch`` results of one batch of sweep points; a batch that
    raises is rerun point by point, so that each point gets its own result
    or its own exception."""
    try:
        return run_batch(batch, ops, calibrations, noiseless)
    except Exception as exc:
        if len(batch) == 1:
            return [exc]
    return [r for point in batch for r in _run_sweep_batch([point], ops, calibrations, noiseless)]


def _fill_row(row: dict, outcome) -> None:
    """Fill a sweep row from its point's estimate, or from the exception
    that stopped the point (``outcome`` itself, or one raised by the
    estimator on the ``SimulationResult`` it is), and print its line."""
    if not isinstance(outcome, Exception):
        try:
            report = estimate(outcome.responses, outcome.levels, outcome.config.protocol,
                              outcome.config.seed)
        except Exception as exc:
            outcome = exc
    if isinstance(outcome, Exception):
        row["error"] = f"{type(outcome).__name__}: {outcome}"
        print(f"  point {row['control']}: FAILED ({row['error']})", file=sys.stderr)
        return
    for est in report.estimates:
        c = est.coefficient
        row[f"T_{c}_mK"] = est.t_mk
        row[f"T_{c}_ci_low_mK"] = est.t_ci95_mk[0]
        row[f"T_{c}_ci_high_mK"] = est.t_ci95_mk[1]
    row["consistency"] = report.consistency
    print(f"  point {row['control']}: T_A={row['T_A_mK']:.2f} "
          f"T_B={row['T_B_mK']:.2f} T_C={row['T_C_mK']:.2f} mK")


def cmd_sweep(args) -> int:
    config = _load_run_config(args)
    if bool(args.bath_mk) == bool(args.flux):
        raise ConfigError("sweep needs exactly one of --bath-mk or --flux")
    sweep_bath = bool(args.bath_mk)
    points = _parse_list(args.bath_mk if sweep_bath else args.flux)
    if not points:
        raise ConfigError("sweep list is empty")
    out = _resolve_output_dir(args, config)

    # operators and calibrations, with their pulses' slice eigenbases, depend
    # on the device only: bath points share them and run in batches of up to
    # SWEEP_BATCH, and each flux point is its own device and its own batch.
    # Bad points (negative bath, flux past the sweet spot) are recorded and
    # skipped, never fatal for the rest of the sweep.
    devices: Dict = {}
    rows, ready = [], []
    for i, value in enumerate(points):
        row = {"control": value, "error": ""}
        rows.append(row)
        try:
            cfg = _point_config(config, sweep_bath, value, i)
            if cfg.system not in devices:
                ops = cfg.system.build_operators()
                devices[cfg.system] = ops, calibrate_transitions(ops, cfg.protocol,
                                                                 cfg.dissipation)
            ready.append((row, steady_point(cfg, devices[cfg.system][0])))
        except Exception as exc:
            _fill_row(row, exc)
    for system, group in groupby(ready, key=lambda item: item[1].config.system):
        group = list(group)
        for at in range(0, len(group), SWEEP_BATCH):
            batch_rows, batch = zip(*group[at:at + SWEEP_BATCH])
            for row, outcome in zip(batch_rows, _run_sweep_batch(list(batch), *devices[system],
                                                                 args.noiseless)):
                _fill_row(row, outcome)

    columns = ["control"]
    for c in ("A", "B", "C"):
        columns += [f"T_{c}_mK", f"T_{c}_ci_low_mK", f"T_{c}_ci_high_mK"]
    columns += ["consistency", "error"]
    _write_table(out / "sweep.csv", columns, [[r.get(k, "") for k in columns] for r in rows])
    n_failed = sum(1 for r in rows if r["error"])
    print(f"sweep: {len(rows)} points ({n_failed} failed) -> {out / 'sweep.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_run_config(args)
    out = _resolve_output_dir(args, config)
    reports = calibrate_transitions(config.system.build_operators(), config.protocol,
                                    config.dissipation)
    _write_json(out / "calibration.json", {t: r.as_dict() for t, r in reports.items()})
    for t, r in reports.items():
        print(f"  pi_{t}: carrier {r.carrier_ghz:.6f} GHz, amplitude {r.amplitude:.6e}, "
              f"transfer {r.transfer_probability:.6f}")
    print(f"calibrate: duration {config.protocol.pulse_duration_ns} ns "
          f"-> {out / 'calibration.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritherm",
        description="Three-level transmon thermometry: simulation and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", help="output directory (overrides env and config)")

    p_sim = sub.add_parser("simulate", help="run the full protocol and estimate T")
    common(p_sim)
    p_sim.add_argument("--noiseless", action="store_true",
                       help="skip measurement noise")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate T from existing trace files")
    common(p_est)
    p_est.add_argument("--traces", required=True,
                       help="directory with x0..y2 CSV traces (or one combined CSV)")
    p_est.add_argument("--f-ge", type=float, default=None, help="f_ge in GHz")
    p_est.add_argument("--f-gf", type=float, default=None, help="f_gf in GHz")
    p_est.add_argument("--window-start", type=float, default=None,
                       help="analysis window start in ns (default: config, else 100)")
    p_est.add_argument("--window-end", type=float, default=None,
                       help="analysis window end in ns (default: config, else 450)")
    p_est.add_argument("--bootstrap", type=int, default=None,
                       help="bootstrap resamples for slope CIs (default: config or 0)")
    p_est.add_argument("--clamp", action="store_true", default=None,
                       help="clamp out-of-range slopes to the inversion bracket")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("montecarlo", help="slope-bias study and repeated-run stats")
    common(p_mc)
    # the spec flags default to MonteCarloSpec's fields
    p_mc.add_argument("--true-slope", type=float)
    p_mc.add_argument("--experiments", type=int)
    p_mc.add_argument("--sigma", type=float)
    p_mc.add_argument("--span", type=float)
    p_mc.add_argument("--points", type=int)
    p_mc.add_argument("--fit-method", choices=["least_squares", "deming"])
    p_mc.add_argument("--lambda-min", type=float, default=0.01)
    p_mc.add_argument("--lambda-max", type=float, default=1.0)
    p_mc.add_argument("--lambda-points", type=int, default=25)
    p_mc.add_argument("--repeats", type=int, default=0,
                      help="end-to-end noisy re-estimates, 0 or at least 2 (needs --config)")
    p_mc.add_argument("--f-ge", type=float, default=6.74, help="f_ge in GHz")
    p_mc.add_argument("--f-gf", type=float, default=13.14, help="f_gf in GHz")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_sweep = sub.add_parser("sweep", help="bath-temperature or flux sweep")
    common(p_sweep)
    p_sweep.add_argument("--bath-mk", help="comma-separated bath temperatures in mK")
    p_sweep.add_argument("--flux", help="comma-separated flux values (Phi/Phi_0)")
    p_sweep.add_argument("--noiseless", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="calibrate pi_ge and pi_ef only")
    common(p_cal)
    p_cal.add_argument("--duration", type=float, default=None,
                       help="pulse duration override in ns")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
