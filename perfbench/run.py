"""tritherm benchmark: one run of one workload, timed from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; tritherm is taken from src/, not from an
installed copy.  Every run starts fresh worker processes with one BLAS and
one OpenMP thread (a closed loop: one client, one process, one thread).

--trace 0 prints the end-to-end metrics; --trace 1 installs hooks on
tritherm's public functions and prints per-layer metrics instead.  Both end
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  Each run
leaves result.json (and trace.json when traced) under perfbench/runs/.

Workloads, metrics and how to read them: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
HISTORY = RUNS / "history.jsonl"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

WORKLOADS = ("simulate_default", "bath_sweep_wp", "analysis_traces")
REQUIRED = ("src/tritherm/cli.py", "configs/default.json", "configs/working_point.json")
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median with the main run
DEADLINE_S = 175.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "op_p50_s": "s", "op_tail_s": "s", "op_fail_frac": "1"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def code_record():
    """Content fingerprint of the measured code, src/ line count and, in a
    git checkout, the commit."""
    digest = hashlib.sha256()
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("configs/*.json")) \
        + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    src_lines = sum(len(p.read_text().splitlines()) for p in ROOT.glob("src/**/*.py"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"fingerprint": digest.hexdigest()[:16], "src_lines": src_lines, "git_commit": commit}


def start_worker(args, run_dir, name, deadline, extra=()):
    """Run worker.py in a fresh process and return its result dict."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = run_dir / f"{name}.json"
    log = run_dir / f"{name}.log"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out), *extra]
    if args.smoke:
        argv.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail(f"no time left to start {name}")
    with open(log, "w") as fh:
        proc = subprocess.Popen(argv + ["--spawned-at", repr(time.monotonic())], cwd=ROOT,
                                env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{name} did not finish within the run deadline; log: {log}")
    if rc != 0 or not out.is_file():
        tail = "\n".join(log.read_text().splitlines()[-15:])
        fail(f"{name} exited {rc}; last log lines:\n{tail}")
    return json.loads(out.read_text())


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(main, probes):
    """(name, value or None, sample count, note) for every end-to-end metric."""
    passes = main["passes"]
    ops = [o["latency_s"] for p in passes for o in p["ops"] if o["counts_in_latency"]]
    setups = [main["setup_s"]] + [p["setup_s"] for p in probes]
    tail = tail_percentile(ops)
    return [
        ("setup_s", statistics.median(setups), len(setups), "processes"),
        ("wall_s", statistics.median(p["wall_s"] for p in passes), len(passes), "passes"),
        ("cpu_s", statistics.median(p["cpu_s"] for p in passes), len(passes), "passes"),
        ("peak_rss_mb", main["peak_rss_mb"], 1, "process"),
        ("op_p50_s", statistics.median(ops), len(ops), "ops"),
        ("op_tail_s", tail and tail[0], len(ops),
         f"ops, p{tail[1]:.1f}" if tail else "ops; needs at least 11"),
        ("op_fail_frac", main["failed"] / main["attempted"], main["attempted"], "ops attempted"),
    ]


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "B (computed)" if name.endswith("_bytes") else "count"


def read_history():
    if not HISTORY.is_file():
        return []
    return [json.loads(line) for line in HISTORY.read_text().splitlines() if line.strip()]


def counter_mismatches(history, workload, fingerprint, per_layer):
    """Counters that differ from an earlier traced run of the same code."""
    earlier = [h for h in history if h["workload"] == workload and h["trace"] == 1
               and h["fingerprint"] == fingerprint]
    if not earlier:
        return None
    before = earlier[-1]["counters"]
    return {k: (before.get(k), v) for k, v in counters_of(per_layer).items()
            if before.get(k) != v}


def counters_of(per_layer):
    return {k: v for k, v in per_layer.items() if isinstance(v, int)}


def main():
    parser = argparse.ArgumentParser(description="tritherm benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure at least one pass, and more while they fit in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced 144x144 composite (smoke test only)")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"not a tritherm checkout: missing {', '.join(missing)}", code=2)
    if BENCHMARK is None:
        fail("BENCHMARK.json not found at the checkout root", code=2)
    load_at_start = os.getloadavg()
    code = code_record()

    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir()

    probes = [] if args.trace else [
        start_worker(args, run_dir, f"probe{i}", deadline, ["--setup-only"])
        for i in range(SETUP_PROBES)]
    main_result = start_worker(args, run_dir, "result", deadline)

    env = dict(main_result["env"], load_avg_at_start=load_at_start, **code)
    history = read_history()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(main_result['passes'])}  (closed loop: 1 client, 1 process, "
          f"BLAS threads {[b.get('threads') for b in env['openblas']]})")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"cpus {env['cpu_count']} (affinity {env['affinity']}), load {load_at_start}, "
          f"src lines {code['src_lines']}, commit {code['git_commit']}, code {code['fingerprint']}")
    for blas in env["openblas"]:
        print(f"  {blas['package']}: {blas.get('config')}, threads {blas.get('threads')}")
    for failure in main_result["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": code["fingerprint"], "run_dir": run_dir.name}
    if args.trace:
        layers = main_result["per_layer"]
        for name in sorted(layers):
            print(f"  {name:<34} {layers[name]:>16.6g} {layer_unit(name)}")
        hooks = main_result["hooks"]
        absent = sorted(k for k, v in hooks.items() if v == "absent")
        print(f"hooks: {sum(v == 'installed' for v in hooks.values())} installed, "
              f"absent: {absent or 'none'}, errors: {main_result['hook_errors'] or 'none'}")
        untraced = [h["wall_s"] for h in history if h["workload"] == args.workload
                    and h["trace"] == 0 and h["fingerprint"] == code["fingerprint"]]
        traced_wall = statistics.median(p["wall_s"] for p in main_result["passes"])
        if untraced:
            base = statistics.median(untraced)
            print(f"tracing overhead: {traced_wall - base:+.4f} s on wall_s "
                  f"({(traced_wall - base) / base:+.2%} of the median of {len(untraced)} "
                  f"untraced runs of this code)")
        else:
            print("tracing overhead: unknown (no untraced run of this code in perfbench/runs)")
        mismatch = counter_mismatches(history, args.workload, code["fingerprint"], layers)
        if mismatch:
            print(f"COUNTERS DIFFER from the last traced run of this code: {mismatch}")
        elif mismatch is not None:
            print("counters: identical to the last traced run of this code")
        record["counters"] = counters_of(layers)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["per_layer"]}
    else:
        rows = {}
        for name, value, n, note in end_to_end(main_result, probes):
            rows[name] = value
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<14} {shown:>12} {UNITS[name]:<3} n={n} {note}")
        record["wall_s"] = rows["wall_s"]
        metrics = {m["name"]: {"value": rows[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}

    main_result["environment"] = env
    (run_dir / "result.json").write_text(json.dumps(main_result, indent=1))
    if not args.smoke:
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": main_result["failed"] == 0,
                      "attempted": main_result["attempted"],
                      "failed": main_result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
