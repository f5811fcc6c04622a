"""One benchmark run of one workload, in a fresh process started by run.py.

run.py sets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and puts the checkout's
src/ on PYTHONPATH before this process starts, so numpy loads with one BLAS
thread.  The worker imports tritherm, sets up its inputs, runs timed passes
of the workload through the public CLI (``tritherm.cli.main``) and API, then
checks every operation's output and writes one result JSON.  Correctness
checks run after the timed part and are never retried.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --spawned-at MONOTONIC --out RESULT.json [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Correctness bands.  Criterion 1 uses 3 sigma of repeated noise draws at
# fixed seeds; here the seed varies per run, and at 3 sigma a correct
# estimator leaves the band on about 0.8% of noise draws (measured: 50 of
# 6000 draws at 163 mK, any of T_A/T_B/T_C).  Five sigma keeps false alarms
# near 1e-6 per run; noiseless checks catch offsets inside the band.
BAND_SIGMAS = 5.0
NOISELESS_TOL_MK = 2.0  # criterion 1, noiseless
PERMUTATION_TOL = 0.01  # criterion 5, dissipative

# analysis_traces input: the working-point device's anchors and analysis
# window, exact population mixtures at 163 mK
TRACE_T_MK = 163.0
F_GE_GHZ, F_GF_GHZ = 6.74, 13.14
TRACE_NOISE_SIGMA = 0.002
RING_UP_NS = 100.0  # Q/(4 f_r) of the working-point resonator
IF_GHZ = 0.05
# pure-state responses: dispersive shifts small against the linewidth, which
# puts std(T_A) > std(T_B) inside criterion 7's 5-25 mK band
LEVEL_RESPONSES = {"g": 1.0, "e": 0.995 * cmath.exp(0.012j), "f": 0.99 * cmath.exp(0.022j)}


@dataclass(frozen=True)
class Scale:
    """Sizes of one pass.  FULL is the benchmark; SMOKE runs the same paths on
    the reduced 144x144 composite the unit tests use."""

    bath_points_mk: str = "50,200"
    estimate_calls: int = 24
    bootstrap: int = 1000
    mc_experiments: int = 1000
    repeated_draws: int = 1000
    band_draws: int = 200
    n_fock: int = 0  # 0 keeps the config's resonator truncation


FULL = Scale()
SMOKE = Scale(estimate_calls=11, bootstrap=50, mc_experiments=100, repeated_draws=100,
              band_draws=50, n_fock=2)


@dataclass
class Op:
    """One timed operation and the deferred check of its output."""

    kind: str
    latency_s: float
    check: object  # () -> list of problem strings
    counts_in_latency: bool = True


class Run:
    def __init__(self, args, tracer):
        self.seed = args.seed
        self.tracer = tracer
        self.scale = SMOKE if args.smoke else FULL
        self.work = Path(args.out).parent / "work"
        self.work.mkdir(parents=True, exist_ok=True)

    def load_config(self, path):
        from tritherm.config import load_config

        with self.tracer.span("config.load"):
            return load_config(path)

    def cli(self, argv, stream_clock=None):
        """Run ``tritherm <argv>`` in process; returns (exit code, seconds)."""
        from tritherm import cli

        redirect = contextlib.ExitStack()
        if stream_clock is not None:
            redirect.enter_context(contextlib.redirect_stdout(stream_clock))
            redirect.enter_context(contextlib.redirect_stderr(stream_clock))
        with redirect, self.tracer.span("cli", command=argv[0]):
            t0 = time.perf_counter()
            rc = cli.main([str(a) for a in argv])
            dt = time.perf_counter() - t0
        return rc, dt

    def config_path(self, name):
        """A repo config, or for smoke runs its reduced-composite copy."""
        path = ROOT / "configs" / name
        if not self.scale.n_fock:
            return path
        data = json.loads(path.read_text())
        data["system"]["resonator"]["n_fock"] = self.scale.n_fock
        path = self.work / name
        path.write_text(json.dumps(data))
        return path


class LineClock:
    """Text stream that timestamps each complete line written to it."""

    def __init__(self, stream):
        self.stream = stream
        self.lines = []
        self._buf = ""

    def write(self, text):
        self.stream.write(text)
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)

    def flush(self):
        self.stream.flush()


def _band_problems(t_mk, target_mk, sigmas, where):
    out = []
    for c in ("A", "B", "C"):
        band = BAND_SIGMAS * sigmas[c]
        err = t_mk[c] - target_mk
        if not abs(err) < band:
            out.append(f"{where}: T_{c} off by {err:+.2f} mK, band {band:.2f} mK")
    return out


# ---------------------------------------------------------------------------
# workloads


class SimulateDefault:
    """One cold ``tritherm simulate`` on configs/default.json."""

    def setup(self, run):
        self.config_path = run.config_path("default.json")
        self.config = run.load_config(self.config_path)

    def run_pass(self, run, index):
        out = run.work / f"simulate-{index}"
        rc, dt = run.cli(["simulate", "--config", self.config_path, "--seed", run.seed,
                          "--out", out])
        return [Op("simulate", dt, lambda: self.check(run, rc, out))]

    def check(self, run, rc, out):
        if rc != 0:
            return [f"simulate exited {rc}"]
        from tritherm.errorlab import repeated_measurement_stats
        from tritherm.hilbert import diagonalize_transmon
        from tritherm.pulses import SEQUENCE_LABELS, compile_sequence
        from tritherm.readout import read_trace_csv, window
        from tritherm.thermometry import SequenceResponses

        problems = []
        keys = ("p_g", "p_e", "p_f")
        pops = json.loads((out / "populations.json").read_text())
        steady = [pops["steady"][k] for k in keys]
        for label in SEQUENCE_LABELS:
            perm = compile_sequence(label).expected_permutation
            prepared = pops["prepared"][label]
            dev = max(abs(prepared[k] - steady[perm[j]]) for j, k in enumerate(keys))
            if not dev < PERMUTATION_TOL:
                problems.append(f"prepared {label} deviates {dev:.4f} from the permutation")

        rc2, _ = run.cli(["estimate", "--config", self.config_path, "--traces", out,
                          "--seed", run.seed, "--out", out / "reestimate"])
        simulated = json.loads((out / "estimate.json").read_text())
        if rc2 != 0:
            problems.append(f"estimate on the written traces exited {rc2}")
        else:
            again = json.loads((out / "reestimate" / "estimate.json").read_text())
            shared = simulated.keys() & again.keys()
            if not {"T_A_mK", "T_B_mK", "T_C_mK"} <= shared:
                problems.append("estimate.json lacks T_A/T_B/T_C")
            problems += [f"estimate differs from simulate on {k}"
                         for k in sorted(shared) if simulated[k] != again[k]]

        cfg = self.config
        traces = {}
        for label in SEQUENCE_LABELS:
            traces.update(read_trace_csv(out / f"{label}.csv"))
        responses = SequenceResponses.from_dict(
            {lab: window(traces[lab], cfg.readout) for lab in SEQUENCE_LABELS})
        levels, _ = diagonalize_transmon(cfg.system.transmon)
        spread = repeated_measurement_stats(
            responses, levels, n_runs=run.scale.band_draws,
            noise_sigma=cfg.readout.noise_sigma, seed=run.seed)
        sigmas = {c: spread.std(c) for c in ("A", "B", "C")}
        t_mk = {c: simulated[f"T_{c}_mK"] for c in ("A", "B", "C")}
        problems += _band_problems(t_mk, cfg.dissipation.bath_t_mk, sigmas, "simulate")
        return problems


class BathSweepWp:
    """One noiseless ``tritherm sweep`` over bath temperatures on the
    working-point device; one operation is one bath point."""

    def setup(self, run):
        self.config_path = run.config_path("working_point.json")
        run.load_config(self.config_path)  # set-up validates the input; the CLI loads it again
        self.points = [float(v) for v in run.scale.bath_points_mk.split(",")]

    def run_pass(self, run, index):
        out = run.work / f"sweep-{index}"
        clock = LineClock(sys.stdout)
        t0 = time.perf_counter()
        rc, dt = run.cli(["sweep", "--config", self.config_path, "--bath-mk",
                          run.scale.bath_points_mk, "--noiseless", "--seed", run.seed,
                          "--out", out], stream_clock=clock)
        # each point reports one line when done; the first interval also
        # carries the calibration the points share
        stamps = [t for t, line in clock.lines if line.lstrip().startswith("point ")]
        if len(stamps) == len(self.points):
            latencies = [b - a for a, b in zip([t0] + stamps, stamps)]
        else:
            latencies = [dt / len(self.points)] * len(self.points)
        return [Op("bath_point", lat, lambda i=i: self.check(rc, out, i))
                for i, lat in enumerate(latencies)]

    def check(self, rc, out, i):
        if rc != 0:
            return [f"sweep exited {rc}"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.points):
            return [f"sweep.csv has {len(rows)} rows, expected {len(self.points)}"]
        row, t_bath = rows[i], self.points[i]
        if float(row["control"]) != t_bath:
            return [f"row {i} is bath {row['control']}, expected {t_bath}"]
        if row["error"]:
            return [f"point {t_bath}: {row['error']}"]
        problems = []
        for c in ("A", "B", "C"):
            err = float(row[f"T_{c}_mK"]) - t_bath
            if not abs(err) < NOISELESS_TOL_MK:
                problems.append(f"point {t_bath}: T_{c} off by {err:+.3f} mK")
        return problems


class AnalysisTraces:
    """The estimator alone: repeated ``tritherm estimate`` on six trace CSVs
    written from the seed, one ``tritherm montecarlo`` bias study and one
    ``repeated_measurement_stats`` call.  The simulator is never called."""

    def setup(self, run):
        import numpy as np
        from tritherm.hilbert import LevelEnergies, thermal_populations
        from tritherm.pulses import compile_sequence, SEQUENCE_LABELS
        from tritherm.readout import IQTrace, add_noise, window, write_trace_csv
        from tritherm.thermometry import SequenceResponses

        cfg = run.load_config(run.config_path("working_point.json"))
        self.readout = cfg.readout
        self.levels = LevelEnergies.from_frequencies(F_GE_GHZ, F_GF_GHZ)
        t = cfg.readout.time_grid()
        shape = (1.0 - np.exp(-t / RING_UP_NS)) * np.exp(2j * np.pi * IF_GHZ * t)
        p = thermal_populations(self.levels, TRACE_T_MK).as_array()
        rng = np.random.default_rng([run.seed, int(TRACE_T_MK)])
        self.trace_dir = run.work / "traces"
        self.trace_dir.mkdir(exist_ok=True)
        clean = {}
        for label in SEQUENCE_LABELS:
            q = p[list(compile_sequence(label).expected_permutation)]
            z = shape * sum(q[j] * LEVEL_RESPONSES[k] for j, k in enumerate("gef"))
            clean[label] = IQTrace(t, z.real.copy(), z.imag.copy(), label)
            noisy = add_noise(clean[label], TRACE_NOISE_SIGMA, cfg.readout.n_averages, rng)
            with run.tracer.span("readout.csv_write"):
                write_trace_csv(self.trace_dir / f"{label}.csv", [noisy])
        self.clean = SequenceResponses.from_dict(
            {lab: window(tr, cfg.readout) for lab, tr in clean.items()})

    def run_pass(self, run, index):
        from tritherm import errorlab

        sc = run.scale
        ro = self.readout
        ops = []
        for i in range(sc.estimate_calls):
            out = run.work / f"estimate-{index}-{i}"
            rc, dt = run.cli(["estimate", "--traces", self.trace_dir, "--f-ge", F_GE_GHZ,
                              "--f-gf", F_GF_GHZ, "--window-start", ro.window_start_ns,
                              "--window-end", ro.window_end_ns, "--bootstrap", sc.bootstrap,
                              "--seed", run.seed, "--out", out])
            ops.append(Op("estimate", dt, lambda rc=rc, out=out: self.check_estimate(rc, out)))

        mc_out = run.work / f"montecarlo-{index}"
        rc, dt = run.cli(["montecarlo", "--f-ge", F_GE_GHZ, "--f-gf", F_GF_GHZ,
                          "--experiments", sc.mc_experiments, "--seed", run.seed,
                          "--out", mc_out])
        ops.append(Op("montecarlo", dt, lambda: self.check_montecarlo(rc, mc_out), False))

        with run.tracer.span("errorlab.repeated"):
            t0 = time.perf_counter()
            try:
                self.stats = errorlab.repeated_measurement_stats(
                    self.clean, self.levels, n_runs=sc.repeated_draws,
                    noise_sigma=TRACE_NOISE_SIGMA, seed=run.seed)
            except Exception as exc:  # a raising study is a failed operation
                self.stats = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        ops.append(Op("repeated", dt, self.check_repeated, False))
        return ops

    def check_repeated(self):
        if isinstance(self.stats, str):
            return [f"repeated_measurement_stats raised {self.stats}"]
        sa, sb = self.stats.std("A"), self.stats.std("B")
        if sa > sb and 5.0 < sa < 25.0 and 5.0 < sb < 25.0:
            return []
        return [f"repeated draws: std_A {sa:.2f}, std_B {sb:.2f} mK outside criterion 7"]

    def check_estimate(self, rc, out):
        """Within the noise band of 163 mK, identical to the first call (same
        files, same seed), and the estimator recovers 163 mK from the
        noiseless mixtures (criterion 1, noiseless).  The last check is what
        catches a systematic offset smaller than the ~40 mK noise band."""
        if rc != 0:
            return [f"estimate exited {rc}"]
        if isinstance(self.stats, str):
            return ["no noise band: the repeated-draw study failed"]
        report = json.loads((out / "estimate.json").read_text())
        self.first_report = getattr(self, "first_report", report)
        problems = [f"estimate differs from the first call on {k}"
                    for k in sorted(report) if report[k] != self.first_report.get(k)]
        sigmas = {c: self.stats.std(c) for c in ("A", "B", "C")}
        t_mk = {c: report[f"T_{c}_mK"] for c in ("A", "B", "C")}
        problems += _band_problems(t_mk, TRACE_T_MK, sigmas, "estimate")
        return problems + self.noiseless_problems()

    def noiseless_problems(self):
        from tritherm.thermometry import estimate_temperature

        clean = estimate_temperature(self.clean, self.levels)
        return [f"noiseless T_{c} off by {err:+.3f} mK"
                for c in ("A", "B", "C")
                for err in [clean.temperature(c).t_mk - TRACE_T_MK]
                if not abs(err) < NOISELESS_TOL_MK]

    def check_montecarlo(self, rc, out):
        """Criterion 6 on the study's own CSV output."""
        if rc != 0:
            return [f"montecarlo exited {rc}"]
        problems = []
        with open(out / "bias_curve.csv", newline="") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        near = min(rows, key=lambda r: abs(r["lambda"] - 0.8834))
        if not (near["mean_fit"] < near["lambda"] and near["ci_high"] < near["lambda"]):
            problems.append(f"no attenuation at lambda {near['lambda']:.4f}")
        with open(out / "discrepancy.csv", newline="") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        at_165 = [r["dT_A_mK"] for r in rows if r["T_mK"] == 165.0]
        if len(at_165) != 1 or not 2.0 <= at_165[0] <= 8.0:
            problems.append(f"dT_A(165 mK) = {at_165} outside [2, 8] mK")
        for c in ("B", "C"):
            worst = max(abs(r[f"dT_{c}_mK"]) for r in rows if r[f"dT_{c}_mK"] == r[f"dT_{c}_mK"])
            if not worst <= 2.5:
                problems.append(f"|dT_{c}| reaches {worst:.2f} mK > 2.5 mK")
        return problems


WORKLOADS = {
    "simulate_default": SimulateDefault,
    "bath_sweep_wp": BathSweepWp,
    "analysis_traces": AnalysisTraces,
}


# ---------------------------------------------------------------------------
# environment and per-layer metrics


def _openblas_runtime():
    """Thread count and build of every OpenBLAS that numpy and scipy bundle,
    asked from the loaded libraries themselves."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and "threads" not in entry:
                        threads.restype = ctypes.c_int
                        entry["threads"] = threads()
                    if config is not None and "config" not in entry:
                        config.restype = ctypes.c_char_p
                        entry["config"] = config().decode()
            found.append(entry)
    return found


def environment():
    import numpy
    import scipy

    blas = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def per_layer(tracer, import_s):
    summary = tracer.summary()

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    c = tracer.counters
    m = {
        "config.load_s": total("config.load"),
        "cli.import_s": import_s,
        "cli.self_s": self_s("cli"),
        "hilbert.build_operators_s": total("hilbert.build_operators"),
        "lindblad.build_liouvillian_s": total("lindblad.build_liouvillian"),
        "lindblad.steady_state_s": total("lindblad.steady_state"),
        "lindblad.steady_state_calls": calls("lindblad.steady_state"),
        "pipeline.run_protocol_self_s": self_s("pipeline.run_protocol"),
        "pulses.calibration_s": total("pulses.calibration"),
        "pulses.transfer_evals": calls("pulses.transfer_eval"),
        "pulses.transfer_eval_s": total("pulses.transfer_eval"),
        "pulses.sequence_s": total("pulses.sequence"),
        "pulses.gate_integrations": calls("pulses.gate_integration"),
        "pulses.rhs_evals": c["pulses.rhs_evals"],
        "pulses.integrator_steps": c["pulses.integrator_steps"],
        "readout.synthesize_s": total("readout.synthesize"),
        "readout.propagator_s": total("readout.propagator"),
        "readout.states_probed": c["readout.states_probed"],
        "readout.propagator_bytes": tracer.gauges.get("readout.propagator_bytes", 0),
        "readout.csv_read_s": total("readout.csv_read"),
        "readout.csv_write_s": total("readout.csv_write"),
        "thermometry.estimate_s": total("thermometry.estimate"),
        "thermometry.estimate_calls": calls("thermometry.estimate"),
        "thermometry.deming_fits": calls("thermometry.deming_fit"),
        "thermometry.bootstrap_slopes": c["thermometry.fit_slopes"] - calls("thermometry.deming_fit"),
        "errorlab.slope_bias_s": total("errorlab.slope_bias"),
        "errorlab.mc_fits": c["errorlab.mc_fits"],
        "errorlab.discrepancy_s": total("errorlab.discrepancy"),
        "errorlab.repeated_s": total("errorlab.repeated"),
        "errorlab.repeated_estimates": c["errorlab.repeated_estimates"],
    }
    for span in tracer.spans:
        if span["name"] == "pulses.sequence" and "label" in span.get("attrs", {}):
            key = f"pulses.sequence_s.{span['attrs']['label']}"
            m[key] = m.get(key, 0.0) + span["end"] - span["start"]
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import tritherm.cli  # noqa: F401  (numpy, scipy and every tritherm module)
    import_s = time.perf_counter() - t0

    from tracer import NullTracer, Tracer, install_hooks

    tracer = Tracer(run_id=Path(args.out).parent.name) if args.trace else NullTracer()
    if args.trace:
        install_hooks(tracer)
    run = Run(args, tracer)
    workload = WORKLOADS[args.workload]()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cli_import_s": import_s}
    try:
        workload.setup(run)
        result["setup_s"] = time.monotonic() - args.spawned_at
        if args.setup_only:
            return _write(args.out, result)

        result["env"] = env = environment()
        wrong = [b for b in env["openblas"] if b.get("threads", 1) != 1]
        if wrong:
            raise SystemExit(f"OpenBLAS runs more than one thread: {wrong}")

        passes = []
        start = time.perf_counter()
        while True:
            w0, c0 = time.perf_counter(), time.process_time()
            ops = workload.run_pass(run, len(passes))
            passes.append({"wall_s": time.perf_counter() - w0,
                           "cpu_s": time.process_time() - c0, "ops": ops})
            elapsed = time.perf_counter() - start
            if elapsed + max(p["wall_s"] for p in passes) > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        attempted = 0
        with tracer.paused():
            for p in passes:
                for op in p["ops"]:
                    attempted += 1
                    try:
                        problems = op.check()
                    except Exception as exc:  # a crashing check is a failed operation
                        problems = [f"{op.kind} check raised {type(exc).__name__}: {exc}"]
                    if problems:
                        failures.append({"op": op.kind, "problems": problems})
        result.update(
            attempted=attempted, failed=len(failures), failures=failures,
            passes=[{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                     "ops": [{"kind": o.kind, "latency_s": o.latency_s,
                              "counts_in_latency": o.counts_in_latency} for o in p["ops"]]}
                    for p in passes])
        if args.trace:
            tracer.uninstall()
            result["per_layer"] = per_layer(tracer, import_s)
            result["hooks"] = tracer.hooks
            result["hook_errors"] = tracer.hook_errors
            trace_path = Path(args.out).with_name("trace.json")
            trace_path.write_text(json.dumps(tracer.dump()))
            result["trace_file"] = str(trace_path)
        return _write(args.out, result)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def _write(path, result):
    Path(path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
