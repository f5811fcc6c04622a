"""Shared fixtures.

The full-protocol runs are expensive (seconds each), so everything
downstream of run_protocol is session-scoped and shares one set of pulse
calibrations; calibration depends only on the device and pulse duration,
never on bath temperature or seed.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from tritherm.config import load_config
from tritherm.hilbert import (
    LevelEnergies,
    ResonatorSpec,
    TransmonSpec,
    build_composite_operators,
    thermal_populations,
)
from tritherm.lindblad import DissipationSpec, build_liouvillian
from tritherm.pipeline import calibrate_transitions, run_protocol
from tritherm.pulses import all_sequences
from tritherm.readout import IQTrace
from tritherm.thermometry import SequenceResponses

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES = []


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true",
                     help="rewrite tests/golden/outputs.json from this run (test_golden.py)")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


class CriterionRecorder:
    def __call__(self, number, description):
        self._current = (number, description)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        number, description = self._current
        if exc_type is None:
            ACCEPTANCE_LINES.append(f"ACCEPTANCE {number}: PASS  ({description})")
        else:
            ACCEPTANCE_LINES.append(
                f"ACCEPTANCE {number}: FAIL  ({description}): {exc}")
        return False


@pytest.fixture(scope="session")
def criterion():
    return CriterionRecorder()


@pytest.fixture(scope="session")
def default_config():
    return load_config(CONFIG_DIR / "default.json")


@pytest.fixture(scope="session")
def wp_config():
    return load_config(CONFIG_DIR / "working_point.json")


@pytest.fixture(scope="session")
def default_ops(default_config):
    return default_config.system.build_operators()


@pytest.fixture(scope="session")
def calibrations(default_config, default_ops):
    return calibrate_transitions(default_ops, default_config.protocol)


@pytest.fixture(scope="session")
def temperature_runs(default_config, calibrations):
    """Noisy protocol runs at the four validation bath temperatures.

    Each result also carries the noiseless windowed responses, so the
    noiseless round-trip checks reuse these runs."""
    runs = {}
    for t_mk in (50.0, 100.0, 150.0, 200.0):
        cfg = dataclasses.replace(
            default_config,
            dissipation=dataclasses.replace(
                default_config.dissipation, bath_t_mk=t_mk),
            seed=int(t_mk),
        )
        runs[t_mk] = run_protocol(cfg, calibrations=calibrations)
    return runs


@pytest.fixture(scope="session")
def run_150(temperature_runs):
    return temperature_runs[150.0]


@pytest.fixture(scope="session")
def wp_run(wp_config):
    """Noiseless run at the anchor working point (f_ge 6.74, f_gf 13.14)."""
    return run_protocol(wp_config, noiseless=True)


@pytest.fixture(scope="session")
def dephasing_run(default_config, calibrations):
    cfg = dataclasses.replace(
        default_config,
        dissipation=dataclasses.replace(
            default_config.dissipation, gamma_phi_mhz=0.2),
    )
    return run_protocol(cfg, noiseless=True, calibrations=calibrations)


@pytest.fixture(scope="session")
def bias_report():
    """Slope-attenuation study over the full coefficient range, at the
    protocol's span, noise, and point count."""
    from tritherm.errorlab import MonteCarloSpec, slope_bias_study

    spec = MonteCarloSpec(true_slope=0.8834, seed=314159)
    return slope_bias_study(spec, lambda_grid=np.linspace(0.01, 1.0, 25))


# small composite for unit tests: 4 x 3 levels keeps the superoperator at
# 144 x 144 so SVDs and propagations are effectively free
SMALL_TSPEC = TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013)
SMALL_RSPEC = ResonatorSpec(fr_ghz=7.75, coupling_ghz=0.018, n_fock=2,
                            q_loaded=3100.0)


def make_synthetic_responses(t_mk=120.0, levels=None, seed=7, n_samples=350,
                             t0_ns=0.0):
    """Exact linear-mixture responses of the six sequences at a known bath
    temperature: perfect gates, a shared ring-up shape, and three distinct
    complex level responses.  Every difference pair is exactly collinear, so
    the fitted slopes equal the population coefficients to rounding."""
    if levels is None:
        levels = LevelEnergies.from_frequencies(4.98, 9.51)
    rng = np.random.default_rng(seed)
    t = t0_ns + np.arange(n_samples, dtype=float)
    shape = (1.0 - np.exp(-t / 80.0)) * np.exp(2j * np.pi * 0.05 * t)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = {k: c[j] * shape for j, k in enumerate("gef")}
    p = thermal_populations(levels, t_mk).as_array()
    traces = {}
    for seq in all_sequences():
        q = p[list(seq.expected_permutation)]
        z = q[0] * phi["g"] + q[1] * phi["e"] + q[2] * phi["f"]
        traces[seq.label] = IQTrace(t, z.real.copy(), z.imag.copy(),
                                    label=seq.label)
    return SequenceResponses.from_dict(traces), levels


@pytest.fixture(scope="session")
def small_ops():
    return build_composite_operators(SMALL_TSPEC, SMALL_RSPEC)


@pytest.fixture(scope="session")
def small_liou(small_ops):
    spec = DissipationSpec(gamma_eg_mhz=0.03, gamma_fe_mhz=0.06, bath_t_mk=100.0)
    return build_liouvillian(small_ops, spec)
