"""Error budget of the per-stage step lengths.

Calibration, gates and readout each run at their own step
(``pulses.CALIBRATION_STEP_NS``, ``GATE_STEP_NS``, ``READOUT_STEP_NS``).  A
protocol run at the shipped steps must give the noiseless temperatures of
the same run with every step ``FINER`` times finer to within
``BUDGET_MK``; the largest difference on the shipped configs is ~5e-3 mK,
set by the gates.
"""

import contextlib
import dataclasses
import pathlib

import pytest

from tritherm import pulses, readout
from tritherm.config import load_config
from tritherm.pipeline import run_protocol
from tritherm.pulses import run_rabi_calibration
from tritherm.thermometry import COEFFICIENTS, estimate_temperature

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
FINER = 4
BUDGET_MK = 1e-2


@contextlib.contextmanager
def _steps(divisor):
    """Divide the gate and readout steps by ``divisor`` while the block runs,
    and yield the calibration step divided likewise (the calibration takes
    its step as an argument)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulses, "GATE_STEP_NS", pulses.GATE_STEP_NS / divisor)
        mp.setattr(readout, "READOUT_STEP_NS", readout.READOUT_STEP_NS / divisor)
        yield pulses.CALIBRATION_STEP_NS / divisor


@pytest.fixture(scope="module", params=["default", "working_point"])
def device(request):
    """A shipped config and its pi pulses calibrated at the shipped steps and
    at the finer ones, keyed by divisor; both bath points share them."""
    cfg = load_config(CONFIG_DIR / f"{request.param}.json")
    ops = cfg.system.build_operators()
    calibrations = {}
    for divisor in (1, FINER):
        with _steps(divisor) as dt_ns:
            calibrations[divisor] = {
                t: run_rabi_calibration(ops, t, cfg.protocol.pulse_duration_ns, dt_ns=dt_ns)
                for t in ("ge", "ef")
            }
    return cfg, calibrations


@pytest.mark.parametrize("t_mk", [50.0, 150.0])
def test_shipped_steps_hold_the_temperature_budget(device, t_mk):
    cfg, calibrations = device
    cfg = dataclasses.replace(
        cfg, dissipation=dataclasses.replace(cfg.dissipation, bath_t_mk=t_mk))
    temps = {}
    for divisor in (1, FINER):
        with _steps(divisor):
            run = run_protocol(cfg, noiseless=True, calibrations=calibrations[divisor])
        report = estimate_temperature(run.noiseless_responses, run.levels)
        temps[divisor] = {c: report.temperature(c).t_mk for c in COEFFICIENTS}
    # the finer steps took effect
    assert temps[1] != temps[FINER]
    for coef in COEFFICIENTS:
        err = temps[1][coef] - temps[FINER][coef]
        assert abs(err) < BUDGET_MK, f"T_{coef} at {t_mk} mK: {err:+.2e} mK"
