"""End-to-end protocol runs and the one protocol-to-estimator call.

``run_protocol`` simulates the chain once: thermal steady state, pi
calibration, the six sequences (one walk over their gate prefixes, each
gate a split-step propagation), and batched readout synthesis, an adjoint
row stepped through the same split-step.  One run
produces the artifacts the estimator and the acceptance checks consume:
normalized full-length traces (optionally noisy), windowed sequence
responses, the pure-state basis, calibration reports, and the
prepared-state populations right before readout.

``run_batch`` runs that chain for several points of one device at once
from their ``steady_point``s, sharing the calibration, the gates' slice
chains and the probe unitary; ``run_protocol`` is a batch of one.  Each
point's ``SimulationResult.timings_s`` holds its own ``steady_state``
seconds (the Liouvillian and the steady state) and the batch's
``calibration``, ``sequences`` and ``readout`` seconds, the same on every
point of the batch.

``estimate`` is the only place where a ``ProtocolConfig`` and a master seed
become an ``estimate_temperature`` call; every CLI command goes through it,
so the same options always give the same report.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .config import ProtocolConfig, RunConfig, rng_stream, stream_seed
from .hilbert import CompositeOperators, LevelEnergies, Populations
from .lindblad import Liouvillian, build_liouvillian, steady_state
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
    timings_s: Dict[str, float]  # seconds per stage; a batch's shared stages on each point


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


class SteadyPoint(NamedTuple):
    """One point of a run up to its steady state, the one stage each point
    of a batch runs alone, with the seconds it took."""

    config: RunConfig
    liou: Liouvillian
    rho_ss: np.ndarray
    seconds: float


def steady_point(config: RunConfig, ops: CompositeOperators) -> SteadyPoint:
    """The Liouvillian and steady state of ``config`` on its device's ``ops``."""
    t0 = time.perf_counter()
    liou = build_liouvillian(ops, config.dissipation)
    rho_ss = steady_state(liou)
    return SteadyPoint(config, liou, rho_ss, time.perf_counter() - t0)


def run_batch(points: Sequence[SteadyPoint], ops: CompositeOperators,
              calibrations: Optional[Dict[str, CalibrationReport]] = None,
              noiseless: bool = False) -> List[SimulationResult]:
    """Simulate the protocol from the steady states of points of one device
    at once, each point's result the one it gets alone.

    The points must share their system, protocol and readout blocks.  The
    calibration (unless ``calibrations`` is given), each gate's slice chain
    (``prepare_sequences``) and the probe unitary (``synthesize_traces``)
    serve them all; each point keeps its own dissipator, basis states,
    normalization and noise draw.
    """
    if not points:
        raise ValueError("run_batch needs at least one point")
    first = points[0].config
    if any((pt.config.system, pt.config.protocol, pt.config.readout)
           != (first.system, first.protocol, first.readout) for pt in points):
        raise ValueError("the points of a batch must share their system, protocol "
                         "and readout blocks")
    timings: Dict[str, float] = {}
    t1 = time.perf_counter()
    if calibrations is None:
        calibrations = calibrate_transitions(ops, first.protocol, first.dissipation)
    timings["calibration"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    lious = [pt.liou for pt in points]
    sequences = prepare_sequences(np.stack([pt.rho_ss for pt in points]), all_sequences(),
                                  lious, calibrations, gap_ns=first.protocol.gap_ns)
    prepared = [{} for _ in points]
    prepared_pops = [{} for _ in points]
    for label, (rho, elapsed_ns, frame) in sequences.items():
        moved = change_frame(rho.reshape(len(points), -1), ops, frame, ops.rspec.fr_ghz,
                             elapsed_ns)
        for q in range(len(points)):
            prepared_pops[q][label] = ops.protocol_populations(rho[q])
            prepared[q][label] = moved[q]
    timings["sequences"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    states = [{**prep, **pure_basis_states(liou)} for prep, liou in zip(prepared, lious)]
    raws = synthesize_traces(states, lious, first.readout)
    timings["readout"] = time.perf_counter() - t3

    return [_point_result(pt, ops, calibrations, pops, raw, noiseless,
                          {"steady_state": pt.seconds, **timings})
            for pt, pops, raw in zip(points, prepared_pops, raws)]


def _point_result(point: SteadyPoint, ops: CompositeOperators,
                  calibrations: Dict[str, CalibrationReport],
                  prepared_pops: Dict[str, Populations], raw: Dict[str, IQTrace],
                  noiseless: bool, timings: Dict[str, float]) -> SimulationResult:
    """One point's result from its raw traces: normalized, noisy unless
    ``noiseless`` (or at zero noise), and cut to the analysis window."""
    config = point.config
    factor = normalization_factor([raw[lab] for lab in BASIS_LABELS])
    basis_traces = {lab: raw[lab].scaled(factor) for lab in BASIS_LABELS}
    clean_traces = {lab: raw[lab].scaled(factor) for lab in SEQUENCE_LABELS}

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
        levels=ops.levels(),
        steady_populations=ops.protocol_populations(point.rho_ss),
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


def run_protocol(
    config: RunConfig,
    noiseless: bool = False,
    calibrations: Optional[Dict[str, CalibrationReport]] = None,
) -> SimulationResult:
    """Simulate the full temperature-measurement protocol once: a
    ``run_batch`` of one point.

    ``calibrations`` short-circuits the Rabi calibrations (they depend only on the
    device and pulse duration, not on bath temperature or seed), which makes
    bath sweeps and repeated runs much cheaper; the reports carry their
    pulses' slice eigenbases, so the gates diagonalize no pulse.
    """
    ops = config.system.build_operators()
    (result,) = run_batch([steady_point(config, ops)], ops, calibrations, noiseless)
    return result


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
