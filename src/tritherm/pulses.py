"""The calibrated pi pulses, their simulated-Rabi calibration, the
six-sequence table, and the package's one time stepper.

The protocol drives two pulses, pi_ge and pi_ef, and ``CalibrationReport``
is their only record: amplitude, duration and carrier.  Its envelope is the
lifted Gaussian of ``lifted_gaussian``, truncated at +-2 sigma (duration =
4 sigma) and lifted so the pulse starts and ends at exactly zero amplitude;
the hard-edge discontinuity of a plainly truncated Gaussian otherwise costs
several orders of magnitude in gate fidelity.

Pulses are calibrated by emulating a Rabi experiment at fixed duration on
the closed (dissipation-free) system: dressed-state population transfer is
maximized jointly over amplitude and carrier by Newton steps on
finite-difference gradients and Hessians, started from the analytic pi-area
amplitude at the dressed transition frequency.  That seed already sits in
the quadratic basin of the peak, so an amplitude scan would only spend
evaluations, and a joint step reaches the peak that one-axis-at-a-time line
searches stop short of.

Calibration, gates and readout share one stepper.  A span is cut into
slices of about the stage's step (below); each slice's unitary
exp(-i 2 pi H_k dt) is exact for the Hamiltonian at the slice midpoint and
comes from one batched ``eigh`` over the distinct slice amplitudes.  The
closed calibration applies each slice to a statevector in its eigenbasis;
the dissipative gates form the unitaries and interleave them with the
dissipator's exponential in a Strang splitting (Strang, SIAM J. Numer.
Anal. 5, 1968), second order in the slice length, and ``readout`` runs the
transpose of the same slices on its adjoint row.  The dissipator's
exponential is applied as its transmon and resonator factors
(``dissipate``): two small real matmuls on reshaped views of rho instead of
one product with a dim^2 x dim^2 matrix.

Each stage has its own step, set by its error budget on the shipped configs
at 50 and 150 mK:

- ``CALIBRATION_STEP_NS`` = 1.0: the closed calibration only has to locate
  the peak.  Its 1-ns amplitude is 5.8e-5 relative off the 0.25-ns peak,
  which costs ~(pi/2 * 5.8e-5)^2 = 1e-8 of gate transfer.
- ``GATE_STEP_NS`` = 0.25: the gates set the temperature error.  Against a
  reference with every stage at 0.0625 ns, T_A, T_B, T_C are off by at most
  4.8e-3 mK; with the gates at 1.0 ns it would be 2.0e-2 mK.
- ``READOUT_STEP_NS`` = 0.5: relative to the trace peak, the readout is
  7.8e-7 off the exact one-sample propagator (2.3e-7 at 0.25 ns, 3.0e-6 at
  1.0 ns), inside the 1e-6 its test allows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import erf, isqrt
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .constants import TWO_PI
from .hilbert import CompositeOperators, validate_density_matrix
from .lindblad import DissipationSpec, IntegrationError, Liouvillian

EDGE = np.exp(-2.0)  # envelope value of the bare Gaussian at +-2 sigma
CALIBRATION_STEP_NS = 1.0  # slice length of the closed Rabi calibration
GATE_STEP_NS = 0.25  # slice length of the dissipative gates
READOUT_STEP_NS = 0.5  # substep of each readout sample
_NEWTON_STENCILS = (1e-3, 1e-4, 1e-5)  # one calibration Newton step per stencil


class CalibrationError(RuntimeError):
    """Rabi calibration failed to reach the transfer threshold."""


def lifted_gaussian(amplitude: float, duration_ns: float):
    """The pi-pulse envelope t -> amp * (exp(-(t-tc)^2/2s^2) - e^-2)/(1 - e^-2)
    on [0, duration] with tc = duration/2 and sigma = duration/4; zero outside."""
    sigma = duration_ns / 4.0

    def value(t: float) -> float:
        if t < 0.0 or t > duration_ns:
            return 0.0
        z = (t - 0.5 * duration_ns) / sigma
        return amplitude * (np.exp(-0.5 * z * z) - EDGE) / (1.0 - EDGE)

    return value


def _lifted_gauss_area(duration_ns: float) -> float:
    sigma = duration_ns / 4.0
    raw = sigma * np.sqrt(2.0 * np.pi) * erf(np.sqrt(2.0))
    return (raw - duration_ns * EDGE) / (1.0 - EDGE)


@dataclass(frozen=True)
class GateSequence:
    """Gates applied left to right and the population permutation they
    perform, new[i] = old[perm[i]]."""

    label: str
    gates: Tuple[str, ...]
    expected_permutation: Tuple[int, int, int]


_SEQUENCES: Dict[str, GateSequence] = {seq.label: seq for seq in (
    GateSequence("x0", (), (0, 1, 2)),
    GateSequence("x1", ("ge",), (1, 0, 2)),
    GateSequence("x2", ("ge", "ef"), (1, 2, 0)),
    GateSequence("y0", ("ef",), (0, 2, 1)),
    GateSequence("y1", ("ef", "ge"), (2, 0, 1)),
    GateSequence("y2", ("ef", "ge", "ef"), (2, 1, 0)),
)}

SEQUENCE_LABELS = tuple(_SEQUENCES)


def compile_sequence(label: str) -> GateSequence:
    """The sequence with this label.  The simulator walks ``all_sequences``;
    this lookup is kept for the tests and perfbench, which build ideal
    traces from one sequence's permutation."""
    if label not in _SEQUENCES:
        raise ValueError(f"unknown sequence label {label!r}; expected one of {SEQUENCE_LABELS}")
    return _SEQUENCES[label]


def all_sequences() -> Tuple[GateSequence, ...]:
    return tuple(_SEQUENCES.values())


_TRANSITIONS = {"ge": (0, 1), "ef": (1, 2)}


def _slice_eigenbases(ops: CompositeOperators, frame_ghz: float, envelope_fn,
                      span_ns: float, dt_ns: float):
    """Slice Hamiltonians H_k = H_static + envelope(t_k) W at the midpoints of
    n = ceil(span/dt_ns) slices of span/n (the last ends exactly at the span).

    One batched ``eigh`` runs on the distinct amplitudes only (the lifted
    Gaussian is symmetric on the grid, guard slices carry no drive): returns
    their phases exp(-i 2 pi w dt) and eigenvectors, each slice's index into
    them, and the slice length."""
    if not (span_ns > 0 and dt_ns > 0):
        raise ValueError("span_ns and dt_ns must be positive")
    n = int(np.ceil(span_ns / dt_ns))
    dt = span_ns / n
    amps, idx = np.unique([envelope_fn((k + 0.5) * dt) for k in range(n)],
                          return_inverse=True)
    w, v = np.linalg.eigh(ops.h_static(frame_ghz) + amps[:, None, None] * ops.drive_op)
    return np.exp(-1j * TWO_PI * dt * w), v, idx, dt


def _slice_unitaries(ops: CompositeOperators, frame_ghz: float, envelope_fn,
                     span_ns: float, dt_ns: float) -> Tuple[np.ndarray, float]:
    """The (n, dim, dim) stack of slice unitaries exp(-i 2 pi H_k dt), and dt."""
    ph, v, idx, dt = _slice_eigenbases(ops, frame_ghz, envelope_fn, span_ns, dt_ns)
    return ((v * ph[:, None, :]) @ np.swapaxes(v.conj(), 1, 2))[idx], dt


def _propagate_closed(ops: CompositeOperators, frame_ghz: float, envelope_fn,
                      duration_ns: float, psi0: np.ndarray, dt_ns: float) -> np.ndarray:
    """Statevector propagation, each slice applied in its eigenbasis as
    V_k (exp(-i 2 pi w_k dt) * V_k+ psi), with no dense unitary formed."""
    ph, v, idx, _ = _slice_eigenbases(ops, frame_ghz, envelope_fn, duration_ns, dt_ns)
    vc = v.conj()
    psi = psi0
    for j in idx:
        psi = v[j] @ (ph[j] * (psi @ vc[j]))
    return psi


def dissipate(v: np.ndarray, factors) -> np.ndarray:
    """exp(D t) applied to a complex row-major vectorized state, from the
    real factor pair (exp(D_T t), exp(D_R t)) of
    ``Liouvillian.dissipator_step``: E_R and then E_T multiply the
    (n n', k k') and (k k', n n') views of rho[k n, k' n'] from the left,
    each as one real matmul on the complex data viewed as float pairs."""
    e_t, e_r = factors
    nlev, nres = isqrt(len(e_t)), isqrt(len(e_r))
    x = v.reshape(nlev, nres, nlev, nres).transpose(1, 3, 0, 2).reshape(nres * nres, -1)
    x = (e_r @ x.view(float)).view(complex).T.copy()
    x = (e_t @ x.view(float)).view(complex)
    return x.reshape(nlev, nlev, nres, nres).transpose(0, 2, 1, 3).reshape(-1)


def unitary_chain(v: np.ndarray, us, full) -> np.ndarray:
    """U_n exp(D dt) ... exp(D dt) U_1 on a row-major vectorized state: the
    slices of a Strang split-step between its opening and closing halves."""
    dim = us[0].shape[0]
    for k, u in enumerate(us):
        if k:
            v = dissipate(v, full)
        v = (u @ v.reshape(dim, dim) @ u.conj().T).reshape(-1)
    return v


def strang_step(v: np.ndarray, us, half, full) -> np.ndarray:
    """Strang split-step of a row-major vectorized state: each slice applies
    exp(D dt/2) U_k . U_k+ exp(D dt/2), and the dissipative halves of
    adjacent slices merge into one exp(D dt) (``half`` and ``full``, factor
    pairs for ``dissipate``).

    The transpose of such a step is again one, made of U_k^T and the
    transposed factors, so the same loop propagates adjoint rows."""
    return dissipate(unitary_chain(dissipate(v, half), us, full), half)


def _propagate_open(liou: Liouvillian, frame_ghz: float, envelope_fn, span_ns: float,
                    rho0: np.ndarray, dt_ns: float) -> np.ndarray:
    """Master-equation propagation over a span by ``strang_step``.

    Every factor is completely positive and trace preserving, so the end state
    must be a density matrix (trace 1e-8, hermiticity 1e-10, eigenvalues
    >= -1e-8); a violation raises ``IntegrationError``.
    """
    dim = liou.ops.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 must be {dim}x{dim}")
    us, dt = _slice_unitaries(liou.ops, frame_ghz, envelope_fn, span_ns, dt_ns)
    rho = strang_step(rho0.reshape(-1), us, *liou.dissipator_step(dt)).reshape(dim, dim)
    try:
        validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-8, eig_tol=-1e-8)
    except ValueError as exc:
        raise IntegrationError(f"state invariant violated after {span_ns} ns: {exc}") from exc
    return rho


def transfer_probability(ops: CompositeOperators, transition: str, carrier_ghz: float,
                         amplitude: float, duration_ns: float,
                         dt_ns: float = CALIBRATION_STEP_NS) -> float:
    """Closed-system population transfer k0 -> k1 for a lifted-Gaussian pulse,
    measured between zero-photon dressed states."""
    k0, k1 = _TRANSITIONS[transition]
    _, v = ops.dressed(0.0)
    psi0 = v[:, ops.dressed_index(k0)].astype(complex)
    target = v[:, ops.dressed_index(k1)]
    psi = _propagate_closed(ops, carrier_ghz, lifted_gaussian(amplitude, duration_ns),
                            duration_ns, psi0, dt_ns)
    return float(np.abs(target.conj() @ psi) ** 2)


@dataclass(frozen=True)
class CalibrationReport:
    """Result of one simulated Rabi calibration.  ``transfer_probability``
    is the closed-system transfer at ``GATE_STEP_NS``, the step the gates
    run the pulse at."""

    transition: str
    amplitude: float
    duration_ns: float
    transfer_probability: float
    carrier_ghz: float

    def envelope(self):
        return lifted_gaussian(self.amplitude, self.duration_ns)

    def as_dict(self) -> dict:
        return {
            "transition": self.transition,
            "amplitude": self.amplitude,
            "duration_ns": self.duration_ns,
            "transfer_probability": self.transfer_probability,
            "carrier_ghz": self.carrier_ghz,
        }


def run_rabi_calibration(ops: CompositeOperators, transition: str, duration_ns: float,
                         dissipation: Optional[DissipationSpec] = None,
                         dt_ns: float = CALIBRATION_STEP_NS) -> CalibrationReport:
    """Calibrate a pi pulse on ``transition`` by maximizing closed-system
    transfer at fixed duration, jointly over amplitude and carrier.

    The search runs on x = (amplitude / amp0, carrier offset in MHz) from
    x = (1, 0): the analytic pi-area amplitude amp0 of the lifted Gaussian
    and the dressed transition frequency.  On the shipped configs at
    40-200 ns the peak lies within 7.2e-4 of the seed in amplitude and
    0.6 MHz in carrier, inside the quadratic basin, so Newton steps converge
    from there directly and an amplitude scan would only spend evaluations.
    Each of the ``_NEWTON_STENCILS`` steps fits a finite-difference gradient
    and Hessian from six transfers (centre, +-h on each axis, one corner) at
    the slice length ``dt_ns``: 18 evaluations, plus one for the reported
    transfer, which is taken at ``GATE_STEP_NS`` because the gates run the
    pulse at that step.  The stencils shrink as the iterate nears the peak;
    at the last, 1e-5, rounding puts only ~eps/h^2 = 1e-6 relative error
    into the Hessian, and the step lands within the ~sqrt(eps) to which
    double precision resolves the argument of a quadratic maximum.

    Raises ``CalibrationError`` when a Hessian is not negative definite (the
    seed is not in the basin of a maximum), when the end point leaves the
    domain 0.3-2.0 amp0, +-2 MHz, or when the reported transfer is below
    0.999.
    """
    if transition not in _TRANSITIONS:
        raise ValueError(f"transition must be 'ge' or 'ef', got {transition!r}")
    if not 40.0 <= duration_ns <= 200.0:
        raise ValueError(f"duration_ns {duration_ns} outside the supported 40-200 ns range")
    if dissipation is not None:
        rates = [r for r in (dissipation.gamma_eg_mhz, dissipation.gamma_fe_mhz) if r > 0]
        if rates and duration_ns > 0.05 * (1e3 / max(rates)):
            warnings.warn(
                f"pulse duration {duration_ns} ns is not small against T1 = "
                f"{1e3 / max(rates):.0f} ns; sequence errors will not be pulse-limited"
            )
    k0, k1 = _TRANSITIONS[transition]
    carrier0 = ops.dressed_transition_ghz(k0, k1)
    n_me = abs(ops.nmat[k0, k1])
    amp0 = 0.25 / (n_me * _lifted_gauss_area(duration_ns))

    def transfer(x, step=dt_ns):
        return transfer_probability(ops, transition, carrier0 + 1e-3 * x[1], x[0] * amp0,
                                    duration_ns, step)

    x = np.array([1.0, 0.0])
    for h in _NEWTON_STENCILS:
        f0 = transfer(x)
        fp = np.array([transfer(x + h * e) for e in np.eye(2)])
        fm = np.array([transfer(x - h * e) for e in np.eye(2)])
        hess = np.diag(fp - 2 * f0 + fm) / h**2
        # forward cross difference from the (+h, +h) corner
        hess[0, 1] = hess[1, 0] = (transfer(x + h) - fp[0] - fp[1] + f0) / h**2
        if not (hess[0, 0] < 0 and np.linalg.det(hess) > 0):
            raise CalibrationError(
                f"pi_{transition}: transfer Hessian not negative definite at "
                f"amplitude {x[0]:.6f} amp0, carrier offset {x[1]:+.6f} MHz "
                f"(duration {duration_ns} ns); the analytic seed is not near a maximum"
            )
        x = x - np.linalg.solve(hess, (fp - fm) / (2 * h))
    if not (0.3 <= x[0] <= 2.0 and abs(x[1]) <= 2.0):
        raise CalibrationError(
            f"pi_{transition}: search ended at amplitude {x[0]:.6f} amp0, carrier "
            f"offset {x[1]:+.6f} MHz, outside 0.3-2.0 amp0 and +-2 MHz "
            f"(duration {duration_ns} ns)"
        )
    best = transfer(x, GATE_STEP_NS)
    if best < 0.999:
        raise CalibrationError(
            f"pi_{transition} transfer {best:.6f} < 0.999 at duration {duration_ns} ns, "
            f"amplitude {x[0]:.6f} amp0, carrier offset {x[1]:+.6f} MHz"
        )
    return CalibrationReport(transition, float(x[0] * amp0), float(duration_ns), best,
                             float(carrier0 + 1e-3 * x[1]))


def change_frame(vec_rho: np.ndarray, ops: CompositeOperators, from_ghz: float,
                 to_ghz: float, t_abs_ns: float) -> np.ndarray:
    """Re-express a vectorized state in a different rotating frame at absolute
    time ``t_abs_ns``: rho -> U rho U+ with U = exp(i 2 pi (to - from) t N)."""
    if from_ghz == to_ghz or t_abs_ns == 0.0:
        return vec_rho
    ph = np.exp(1j * TWO_PI * (to_ghz - from_ghz) * t_abs_ns * ops.frame_gen_vec)
    return vec_rho * (ph[:, None] * ph.conj()[None, :]).reshape(-1)


def _apply_gate(state: Tuple[np.ndarray, float, float], pulse: CalibrationReport,
                liou: Liouvillian, gap_ns: float) -> Tuple[np.ndarray, float, float]:
    """One gate on ``(rho, elapsed_ns, frame_ghz)``: change to the pulse's
    carrier frame at the elapsed time, then propagate over the pulse plus
    ``gap_ns`` of free evolution."""
    rho, t_abs, frame = state
    ops = liou.ops
    v = change_frame(rho.reshape(-1), ops, frame, pulse.carrier_ghz, t_abs)
    span = pulse.duration_ns + gap_ns
    rho = _propagate_open(liou, pulse.carrier_ghz, pulse.envelope(), span,
                          v.reshape(ops.dim, ops.dim), GATE_STEP_NS)
    return rho, t_abs + span, pulse.carrier_ghz


def prepare_sequences(
    rho_ss: np.ndarray,
    seqs: Iterable[GateSequence],
    liou: Liouvillian,
    calibrations: Dict[str, CalibrationReport],
    gap_ns: float = 4.0,
) -> Dict[str, Tuple[np.ndarray, float, float]]:
    """Evolve the steady state through each sequence's calibrated gates with
    dissipation on.

    The sequences are walked as a tree of gate prefixes: a chain already
    propagated for one sequence is extended, not repeated (x2 extends x1, y1
    and y2 extend y0), so the six protocol sequences take five gate
    propagations instead of nine and give the same states as propagating
    each sequence on its own.  Each gate is one ``_propagate_open`` call over
    its pulse plus a ``gap_ns`` guard, in the gate's own carrier frame; frame
    changes are the diagonal phases of ``change_frame`` evaluated at the
    elapsed time.  Returns ``{label: (rho, elapsed_ns, frame_ghz)}`` with each
    state still expressed in its last gate's frame (bare frame for x0).
    """
    done = {(): (rho_ss.astype(complex), 0.0, 0.0)}
    out = {}
    for seq in seqs:
        for n, gate in enumerate(seq.gates, start=1):
            if seq.gates[:n] not in done:
                done[seq.gates[:n]] = _apply_gate(done[seq.gates[:n - 1]],
                                                  calibrations[gate], liou, gap_ns)
        out[seq.label] = done[seq.gates]
    return out
