"""Smoke test of the benchmark itself.

Runs every workload's path once on the reduced composite the unit tests use
(4 transmon levels, n_fock=2, a 144x144 superoperator), so a broken hook,
check or result line fails in well under a minute.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                 "--smoke")
    metrics = result_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert "errors: none" in proc.stdout
    for name in ("cli.import_s", "config.load_s", "cli.self_s", "thermometry.estimate_s",
                 "thermometry.estimate_calls", "thermometry.deming_fits"):
        assert metrics[name]["value"] > 0, name
    simulates = workload != "analysis_traces"
    for name in ("pulses.transfer_evals", "readout.states_probed",
                 "lindblad.steady_state_calls"):
        assert (metrics[name]["value"] > 0) == simulates, name
    assert (metrics["errorlab.mc_fits"]["value"] > 0) == (not simulates)


def test_untraced_run():
    proc = bench("--workload", "analysis_traces", "--seed", "4", "--seconds", "1", "--trace",
                 "0", "--smoke")
    metrics = result_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]] == {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
        assert metrics[m["name"]]["value"] > 0
    assert "op_tail_s" in proc.stdout and "op_fail_frac" in proc.stdout


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = bench("--workload", "simulate_default", "--seed", "1", "--seconds", "1", "--trace",
                 "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_target_is_absent():
    tracer = Tracer("t")
    tracer.wrap("json", "no_such_function", span_name="x")
    tracer.wrap("no_such_module_for_perfbench", "f", span_name="x")
    assert set(tracer.hooks.values()) == {"absent"}


def test_self_time_excludes_children():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    spans = {s["name"]: s["end"] - s["start"] for s in tracer.spans}
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(spans["outer"] - spans["inner"])
    assert summary["inner"]["self_s"] == pytest.approx(spans["inner"])
