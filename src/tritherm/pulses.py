"""Drive envelopes, simulated-Rabi pi calibration, the six-sequence table, and
the package's one time stepper.

Gaussian drive envelopes are truncated at +-2 sigma (duration = 4 sigma) and
lifted so the pulse starts and ends at exactly zero amplitude; the hard-edge
discontinuity of a plainly truncated Gaussian otherwise costs several orders
of magnitude in gate fidelity.

Pulses are calibrated by emulating a Rabi experiment: sweep the amplitude at
fixed duration on the closed (dissipation-free) system, maximize dressed-state
population transfer, then refine amplitude and a small carrier offset with
Brent's bounded search (R. P. Brent, Algorithms for Minimization without
Derivatives, 1973).

Calibration, gates and readout share one stepper.  A span is cut into
slices of about ``STEP_NS``; each slice's unitary exp(-i 2 pi H_k dt) is
exact for the Hamiltonian at the slice midpoint and comes from one batched
``eigh`` over the distinct slice amplitudes.  The closed calibration applies
each slice to a statevector in its eigenbasis; the dissipative gates form
the unitaries and interleave them with the dissipator's exponential in a
Strang splitting (Strang, SIAM J. Numer. Anal. 5, 1968), second order in the
slice length, and ``readout`` runs the transpose of the same
``strang_step`` on its adjoint row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erf

from .constants import TWO_PI
from .hilbert import CompositeOperators, Populations, validate_density_matrix
from .lindblad import DissipationSpec, IntegrationError, Liouvillian

EDGE = np.exp(-2.0)  # envelope value of the bare Gaussian at +-2 sigma
STEP_NS = 0.25  # slice length of every propagation: calibration, gates and readout


class CalibrationError(RuntimeError):
    """Rabi calibration failed to reach the transfer threshold."""


@dataclass(frozen=True)
class PulseEnvelope:
    """Drive or probe tone: shape, carrier, amplitude and timing (ns, GHz).

    ``value(t)`` evaluates the envelope at absolute time t.  Gaussian drives
    use the lifted shape amp * (exp(-(t-tc)^2/2s^2) - e^-2)/(1 - e^-2) on
    [start, start+duration] with sigma = duration/4; rectangular probes are
    flat on the same interval.
    """

    kind: str
    carrier_ghz: float
    amplitude: float
    duration_ns: float
    sigma_ns: Optional[float] = None
    start_ns: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian_drive", "rectangular_probe"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.kind == "gaussian_drive":
            sigma = self.duration_ns / 4.0 if self.sigma_ns is None else self.sigma_ns
            if abs(sigma - self.duration_ns / 4.0) > 1e-12 * self.duration_ns:
                raise ValueError("gaussian envelopes are truncated at +-2 sigma: "
                                 "sigma_ns must equal duration_ns/4")
            object.__setattr__(self, "sigma_ns", sigma)
        elif self.sigma_ns is not None:
            raise ValueError("sigma_ns only applies to gaussian_drive")

    def value(self, t: float) -> float:
        u = t - self.start_ns
        if u < 0.0 or u > self.duration_ns:
            return 0.0
        if self.kind == "rectangular_probe":
            return self.amplitude
        z = (u - 0.5 * self.duration_ns) / self.sigma_ns
        return self.amplitude * (np.exp(-0.5 * z * z) - EDGE) / (1.0 - EDGE)

    def area_ns(self) -> float:
        """Integral of the envelope over its support."""
        if self.kind == "rectangular_probe":
            return self.amplitude * self.duration_ns
        return self.amplitude * _lifted_gauss_area(self.duration_ns)


def _lifted_gauss_area(duration_ns: float) -> float:
    sigma = duration_ns / 4.0
    raw = sigma * np.sqrt(2.0 * np.pi) * erf(np.sqrt(2.0))
    return (raw - duration_ns * EDGE) / (1.0 - EDGE)


# label -> (gates applied left to right, population permutation new[i] = old[perm[i]])
_TABLE: Dict[str, Tuple[Tuple[str, ...], Tuple[int, int, int]]] = {
    "x0": ((), (0, 1, 2)),
    "x1": (("ge",), (1, 0, 2)),
    "x2": (("ge", "ef"), (1, 2, 0)),
    "y0": (("ef",), (0, 2, 1)),
    "y1": (("ef", "ge"), (2, 0, 1)),
    "y2": (("ef", "ge", "ef"), (2, 1, 0)),
}

SEQUENCE_LABELS = tuple(_TABLE)


@dataclass(frozen=True)
class GateSequence:
    label: str
    gates: Tuple[str, ...]
    expected_permutation: Tuple[int, int, int]

    def __post_init__(self):
        if self.label not in _TABLE:
            raise ValueError(f"unknown sequence label {self.label!r}")
        gates, perm = _TABLE[self.label]
        if self.gates != gates or self.expected_permutation != perm:
            raise ValueError(f"sequence {self.label} does not match the protocol table")


def compile_sequence(label: str) -> GateSequence:
    if label not in _TABLE:
        raise ValueError(f"unknown sequence label {label!r}; expected one of {SEQUENCE_LABELS}")
    gates, perm = _TABLE[label]
    return GateSequence(label, gates, perm)


def all_sequences() -> Tuple[GateSequence, ...]:
    return tuple(compile_sequence(lab) for lab in SEQUENCE_LABELS)


def apply_sequence_ideal(populations: Populations, seq: GateSequence) -> Populations:
    """Exact population permutation of the sequence (the noiseless oracle)."""
    p = populations.as_array()
    return Populations(*(p[list(seq.expected_permutation)]))


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


def strang_step(v: np.ndarray, us, half, full) -> np.ndarray:
    """Strang split-step of a row-major vectorized state: each slice applies
    exp(D dt/2) U_k . U_k+ exp(D dt/2), and the dissipative halves of
    adjacent slices merge into one exp(D dt) (``half`` and ``full``).

    The transpose of such a step is again one, made of U_k^T and the
    transposed exponentials, so the same loop propagates adjoint rows."""
    dim = us[0].shape[0]
    v = half @ v
    for k, u in enumerate(us):
        if k:
            v = full @ v
        v = (u @ v.reshape(dim, dim) @ u.conj().T).reshape(-1)
    return half @ v


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
                         amplitude: float, duration_ns: float, dt_ns: float = STEP_NS) -> float:
    """Closed-system population transfer k0 -> k1 for a lifted-Gaussian pulse,
    measured between zero-photon dressed states."""
    k0, k1 = _TRANSITIONS[transition]
    _, v = ops.dressed(0.0)
    psi0 = v[:, ops.dressed_index(k0)].astype(complex)
    target = v[:, ops.dressed_index(k1)]
    env = PulseEnvelope("gaussian_drive", carrier_ghz, amplitude, duration_ns)
    psi = _propagate_closed(ops, carrier_ghz, env.value, duration_ns, psi0, dt_ns)
    return float(np.abs(target.conj() @ psi) ** 2)


def _brent_max(f, lo: float, hi: float, xatol: float) -> Tuple[float, float]:
    res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return float(res.x), -float(res.fun)


@dataclass(frozen=True)
class CalibrationReport:
    """Result of one simulated Rabi calibration."""

    transition: str
    amplitude: float
    duration_ns: float
    transfer_probability: float
    carrier_ghz: float

    def envelope(self, start_ns: float = 0.0) -> PulseEnvelope:
        return PulseEnvelope("gaussian_drive", self.carrier_ghz, self.amplitude,
                             self.duration_ns, start_ns=start_ns)

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
                         dt_ns: float = STEP_NS, n_scan: int = 32) -> CalibrationReport:
    """Calibrate a pi pulse on ``transition`` by maximizing closed-system
    transfer at fixed duration.

    The amplitude scan is seeded by the analytic pi-area estimate for the
    lifted Gaussian, scanned over 0.3-2.0x, then refined by Brent searches
    on amplitude, a +-2 MHz carrier offset, and amplitude again, to 1e-8 of
    the amplitude seed and 1e-10 GHz: double precision resolves the argument
    of a quadratic maximum only to ~sqrt(eps) relative, so tighter targets
    chase rounding noise.
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

    def tr_amp(amp, carrier=carrier0):
        return transfer_probability(ops, transition, carrier, amp, duration_ns, dt_ns)

    amps = np.linspace(0.3, 2.0, n_scan) * amp0
    scan = [tr_amp(a) for a in amps]
    i = int(np.argmax(scan))
    amp, _ = _brent_max(tr_amp, amps[max(i - 1, 0)], amps[min(i + 1, n_scan - 1)], 1e-8 * amp0)
    offset, _ = _brent_max(lambda o: tr_amp(amp, carrier0 + o), -2e-3, 2e-3, 1e-10)
    carrier = carrier0 + offset
    amp, best = _brent_max(lambda a: tr_amp(a, carrier), 0.98 * amp, 1.02 * amp, 1e-8 * amp0)
    if best < 0.999:
        raise CalibrationError(
            f"pi_{transition} transfer {best:.6f} < 0.999 at duration {duration_ns} ns; "
            f"scan peak {max(scan):.6f} over amplitudes "
            f"[{amps[0]:.3e}, {amps[-1]:.3e}]"
        )
    return CalibrationReport(transition, float(amp), float(duration_ns), best, float(carrier))


def change_frame(vec_rho: np.ndarray, ops: CompositeOperators, from_ghz: float,
                 to_ghz: float, t_abs_ns: float) -> np.ndarray:
    """Re-express a vectorized state in a different rotating frame at absolute
    time ``t_abs_ns``: rho -> U rho U+ with U = exp(i 2 pi (to - from) t N)."""
    if from_ghz == to_ghz or t_abs_ns == 0.0:
        return vec_rho
    ph = np.exp(1j * TWO_PI * (to_ghz - from_ghz) * t_abs_ns * ops.frame_gen_vec)
    return vec_rho * (ph[:, None] * ph.conj()[None, :]).reshape(-1)


def _apply_gate(state: Tuple[np.ndarray, float, float], pulse: PulseEnvelope,
                liou: Liouvillian, gap_ns: float) -> Tuple[np.ndarray, float, float]:
    """One gate on ``(rho, elapsed_ns, frame_ghz)``: change to the pulse's
    carrier frame at the elapsed time, then propagate over the pulse plus
    ``gap_ns`` of free evolution."""
    rho, t_abs, frame = state
    ops = liou.ops
    v = change_frame(rho.reshape(-1), ops, frame, pulse.carrier_ghz, t_abs)
    span = pulse.duration_ns + gap_ns
    rho = _propagate_open(liou, pulse.carrier_ghz, pulse.value, span,
                          v.reshape(ops.dim, ops.dim), STEP_NS)
    return rho, t_abs + span, pulse.carrier_ghz


def prepare_sequences(
    rho_ss: np.ndarray,
    seqs: Iterable[GateSequence],
    liou: Liouvillian,
    pulses: Dict[str, PulseEnvelope],
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
                done[seq.gates[:n]] = _apply_gate(done[seq.gates[:n - 1]], pulses[gate],
                                                  liou, gap_ns)
        out[seq.label] = done[seq.gates]
    return out
