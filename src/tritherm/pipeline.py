"""End-to-end protocol runs and the one protocol-to-estimator call.

``run_protocol`` simulates the chain once: thermal steady state, pi
calibration, the six sequences (one walk over their gate prefixes, each
gate a split-step propagation), and batched readout synthesis, an adjoint
row stepped through the same split-step.  One run
produces the artifacts the estimator and the acceptance checks consume:
normalized full-length traces (optionally noisy), windowed sequence
responses, the pure-state basis, calibration reports, and the
prepared-state populations right before readout.

``estimate`` is the only place where a ``ProtocolConfig`` and a master seed
become an ``estimate_temperature`` call; every CLI command goes through it,
so the same options always give the same report.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .config import ProtocolConfig, RunConfig, rng_stream, stream_seed
from .hilbert import CompositeOperators, LevelEnergies, Populations
from .lindblad import build_liouvillian, steady_state
from .pulses import (
    SEQUENCE_LABELS,
    CalibrationReport,
    all_sequences,
    change_frame,
    prepare_sequences,
    run_rabi_calibration,
)
from .readout import (
    IQTrace,
    ReadoutConfig,
    add_noise,
    normalization_factor,
    pure_basis_states,
    synthesize_traces,
    window,
)
from .thermometry import EstimateReport, SequenceResponses, estimate_temperature

BASIS_LABELS = ("g", "e", "f")


@dataclass
class SimulationResult:
    """Everything one protocol run produces."""

    config: RunConfig
    levels: LevelEnergies
    steady_populations: Populations
    calibrations: Dict[str, CalibrationReport]
    prepared_populations: Dict[str, Populations]
    traces: Dict[str, IQTrace]
    basis_traces: Dict[str, IQTrace]
    responses: SequenceResponses
    noiseless_responses: SequenceResponses
    noisy: bool
    norm_factor: float
    timings_s: Dict[str, float]


def calibrate_transitions(ops: CompositeOperators, protocol: ProtocolConfig,
                          dissipation=None) -> Dict[str, CalibrationReport]:
    """Calibrated pi_ge and pi_ef reports at the protocol pulse duration."""
    return {
        t: run_rabi_calibration(ops, t, protocol.pulse_duration_ns, dissipation)
        for t in ("ge", "ef")
    }


def windowed_sequences(traces: Dict[str, IQTrace], readout: ReadoutConfig) -> SequenceResponses:
    """The six sequence traces cut to ``readout``'s analysis window."""
    return SequenceResponses.from_dict(
        {lab: window(traces[lab], readout) for lab in SEQUENCE_LABELS}
    )


def run_protocol(
    config: RunConfig,
    noiseless: bool = False,
    calibrations: Optional[Dict[str, CalibrationReport]] = None,
) -> SimulationResult:
    """Simulate the full temperature-measurement protocol once.

    ``calibrations`` short-circuits the Rabi calibrations (they depend only on the
    device and pulse duration, not on bath temperature or seed), which makes
    bath sweeps and repeated runs much cheaper; the reports carry their
    pulses' slice eigenbases, so the gates diagonalize no pulse.
    """
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()

    ops = config.system.build_operators()
    liou = build_liouvillian(ops, config.dissipation)
    levels = ops.levels()
    rho_ss = steady_state(liou)
    steady_pops = ops.protocol_populations(rho_ss)
    timings["steady_state"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if calibrations is None:
        calibrations = calibrate_transitions(ops, config.protocol, config.dissipation)
    timings["calibration"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    fr = ops.rspec.fr_ghz
    sequences = prepare_sequences(rho_ss, all_sequences(), liou, calibrations,
                                  gap_ns=config.protocol.gap_ns)
    prepared: Dict[str, np.ndarray] = {}
    prepared_pops: Dict[str, Populations] = {}
    for label, (rho, elapsed_ns, frame) in sequences.items():
        prepared_pops[label] = ops.protocol_populations(rho)
        prepared[label] = change_frame(rho.reshape(-1), ops, frame, fr, elapsed_ns)
    timings["sequences"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    states = dict(prepared)
    states.update(pure_basis_states(liou))
    raw = synthesize_traces(states, liou, config.readout)
    factor = normalization_factor([raw[lab] for lab in BASIS_LABELS])
    basis_traces = {lab: raw[lab].scaled(factor) for lab in BASIS_LABELS}
    clean_traces = {lab: raw[lab].scaled(factor) for lab in SEQUENCE_LABELS}
    timings["readout"] = time.perf_counter() - t3

    if noiseless or config.readout.noise_sigma == 0.0:
        noisy_traces = clean_traces
        noisy = False
    else:
        noisy_traces = {
            lab: add_noise(clean_traces[lab], config.readout.noise_sigma,
                           config.readout.n_averages,
                           rng_stream(config.seed, "noise", i))
            for i, lab in enumerate(SEQUENCE_LABELS)
        }
        noisy = True

    msg = config.readout.check_ring_up(ops.rspec)
    if msg is not None:
        warnings.warn(msg)
    responses = windowed_sequences(noisy_traces, config.readout)
    noiseless_responses = (
        responses if not noisy else windowed_sequences(clean_traces, config.readout)
    )

    return SimulationResult(
        config=config,
        levels=levels,
        steady_populations=steady_pops,
        calibrations=calibrations,
        prepared_populations=prepared_pops,
        traces=noisy_traces,
        basis_traces=basis_traces,
        responses=responses,
        noiseless_responses=noiseless_responses,
        noisy=noisy,
        norm_factor=factor,
        timings_s=timings,
    )


def estimate(responses: SequenceResponses, levels, protocol: ProtocolConfig,
             seed: Optional[int]) -> EstimateReport:
    """Run the estimator on windowed responses with ``protocol``'s fit options
    and the bootstrap substream of the master ``seed``."""
    return estimate_temperature(
        responses,
        levels,
        n_bootstrap=protocol.n_bootstrap,
        seed=stream_seed(seed, "bootstrap"),
        clamp=protocol.clamp_out_of_range,
    )
