"""Golden outputs: the key numbers of the session runs against
``tests/golden/outputs.json``, within the relative tolerances that file
states (one for noiseless values and calibrations, one for noisy values).

A change that moves an output on purpose regenerates the file with

    python -m pytest tests/test_golden.py --update-golden

and states the largest relative change per quantity in CHANGES.md.
"""

import json
import pathlib

import pytest

from tritherm.errorlab import repeated_measurement_stats, temperature_discrepancy
from tritherm.pipeline import estimate
from tritherm.thermometry import COEFFICIENTS, estimate_temperature

GOLDEN = pathlib.Path(__file__).parent / "golden" / "outputs.json"
KINDS = ("noiseless", "noisy")
SEED = 20260312


def _report_values(report) -> dict:
    d = report.as_dict()
    out = {}
    for c in COEFFICIENTS:
        out[f"T_{c}_mK"] = d[f"T_{c}_mK"]
        out[f"T_{c}_ci95_mK"] = d[f"T_{c}_ci95_mK"]
    out["pair_slopes"] = [p["value"] for p in d["pair_slopes"]]
    out["consistency"] = d["consistency_C_vs_AB"]
    return out


def _run_report(result):
    return estimate(result.responses, result.levels, result.config.protocol, result.config.seed)


@pytest.fixture(scope="module")
def current(request, temperature_runs, wp_run, calibrations, bias_report, run_150):
    noiseless, noisy = {}, {}
    for t_mk, result in temperature_runs.items():
        noisy[f"temperature_runs_{t_mk:g}mK"] = _report_values(_run_report(result))
        clean = _report_values(estimate_temperature(result.noiseless_responses, result.levels))
        # C - A B is ~1e-7 of C here; its ratio moves 2e-9 with the BLAS thread count
        del clean["consistency"]
        noiseless[f"temperature_runs_{t_mk:g}mK_clean"] = clean
    noiseless["wp_run"] = _report_values(_run_report(wp_run))
    noiseless["default_calibration"] = {
        t: {"amplitude": r.amplitude, "carrier_ghz": r.carrier_ghz}
        for t, r in sorted(calibrations.items())}
    noiseless["wp_calibration"] = {
        t: {"amplitude": r.amplitude, "carrier_ghz": r.carrier_ghz}
        for t, r in sorted(wp_run.calibrations.items())}
    noisy["bias_fitted_slope_at_0.8834"] = bias_report.fitted_slope_at(0.8834)
    noisy["bias_dT_A_at_165mK"] = temperature_discrepancy(bias_report, (6.74, 13.14)).at("A", 165.0)
    noisy["run_150_bootstrap_200"] = _report_values(estimate_temperature(
        run_150.responses, run_150.levels, n_bootstrap=200, seed=SEED))
    stats = repeated_measurement_stats(wp_run.noiseless_responses, wp_run.levels, n_runs=300,
                                       noise_sigma=wp_run.config.readout.noise_sigma, seed=SEED)
    noisy["wp_repeated_300"] = {f"T_{c}_{stat}_mK": getattr(stats, stat)(c)
                                for c in COEFFICIENTS for stat in ("mean", "std")}
    values = {"noiseless": noiseless, "noisy": noisy}
    if request.config.getoption("--update-golden"):
        kept = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k not in KINDS}
        GOLDEN.write_text(json.dumps({**kept, **values}, indent=1) + "\n")
    return values


def _leaves(tree, path=""):
    """(path, number) for every number in a tree of dicts and lists."""
    if isinstance(tree, dict):
        for key, sub in tree.items():
            yield from _leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, sub in enumerate(tree):
            yield from _leaves(sub, f"{path}[{i}]")
    else:
        yield path, tree


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_the_golden_file(current, kind):
    golden = json.loads(GOLDEN.read_text())
    rtol = golden["relative_tolerance"][kind]
    want, got = dict(_leaves(golden[kind])), dict(_leaves(current[kind]))
    assert sorted(got) == sorted(want)
    off = [f"{name}: {got[name]!r} vs golden {w!r}" for name, w in want.items()
           if not abs(got[name] - w) <= rtol * abs(w)]
    assert not off, f"{len(off)} {kind} value(s) off by more than {rtol:g} relative:\n" + \
        "\n".join(off)
