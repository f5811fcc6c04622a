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
maximized jointly over amplitude and carrier by Newton steps, started from
the analytic pi-area amplitude at the dressed transition frequency.  That
seed already sits in the quadratic basin of the peak, so an amplitude scan
would only spend evaluations, and a joint step reaches the peak that
one-axis-at-a-time line searches stop short of.  The gradient is exact
(``transfer_gradient``): each slice's eigendecomposition, which the
propagation needs anyway, gives the derivative of its exponential through
first divided differences of the eigenvalue phases (Daleckii-Krein, as in
GRAPE: de Fouquieres, Schirmer, Glaser & Kuprov, J. Magn. Reson. 212, 412
(2011)), a forward pass (``_propagate_closed``) and an adjoint pass apply
it, and the Hessian is a difference of two exact gradients.

Calibration, gates and readout share one splitting.  A span is cut into
slices of about the stage's step (below); each slice's unitary
exp(-i 2 pi H_k dt) is exact for the Hamiltonian at the slice midpoint,
whose eigenbasis comes from one batched ``eigh`` over the distinct slice
amplitudes.  The closed calibration applies each slice to a statevector in
its eigenbasis.  Its last batch cuts the calibrated pulse at the gate step:
that batch gives the reported transfer, and its eigenbases travel with the
``CalibrationReport`` to every gate that plays the pulse, so a pulse is
diagonalized at the gate step once per calibration, however many gates and
bath points share it.  The dissipative gates interleave those slices, and
the free evolution of the guard after the pulse, with the dissipator's
exponential in a Strang splitting (Strang, SIAM J. Numer. Anal. 5, 1968),
second order in the slice length.  A gate steps the Hermitian rho packed
as the real matrix Re rho + Im rho: the slice eigenvectors are real, so a
slice is four real dim x dim products in its eigenbasis and an elementwise
rotation by the eigenvalue phases (``_propagate_open``), with no complex
unitary formed.  ``readout`` runs the transpose of the same splitting on
its complex adjoint row.  The dissipator's exponential is applied as its
transmon and resonator factors (``dissipate``): a real left and a real
right matmul on one permuted copy of the state, real or complex, instead
of one product with a dim^2 x dim^2 matrix.  The bath points of one device
share the pulses and their slices, so the gate kernels (``prepare_sequences``,
``_apply_gate``, ``_propagate_open``) take one shape: a (p, dim, dim) stack of
the states of p points, one point being a stack of one, each state under its
own point's dissipator.  The batch's gates are timed as one, and every point
of it reports that time as its ``SimulationResult.timings_s["sequences"]``.

Each stage has its own step, set by its error budget on the shipped configs
at 50 and 150 mK:

- ``CALIBRATION_STEP_NS`` = 1.0: the closed calibration only has to locate
  the peak.  Its 1-ns amplitude is 5.8e-5 relative off the 0.25-ns peak,
  which costs ~(pi/2 * 5.8e-5)^2 = 1e-8 of gate transfer.
- ``GATE_STEP_NS`` = 0.25: the gates set the temperature error.  Against a
  reference with every stage at 0.0625 ns, T_A, T_B, T_C are off by at most
  4.8e-3 mK; with the gates at 1.0 ns it would be 2.0e-2 mK.
- ``READOUT_STEP_NS`` = 0.5: relative to the trace peak and against the
  exact one-sample propagator exp(L 1 ns), the readout is at most 1.2e-7 off
  on the default config over 50-200 mK; on the working point it is 6.6e-7
  off at 50 mK, 7.5e-7 at 163 mK and 1.09e-6 at 200 mK.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import groupby
from math import erf
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import TWO_PI
from .hilbert import CompositeOperators, validate_density_matrix
from .lindblad import DissipationSpec, DissipatorStep, IntegrationError, Liouvillian

EDGE = np.exp(-2.0)  # envelope value of the bare Gaussian at +-2 sigma
CALIBRATION_STEP_NS = 1.0  # slice length of the closed Rabi calibration
GATE_STEP_NS = 0.25  # slice length of the dissipative gates
READOUT_STEP_NS = 0.5  # substep of each readout sample
_HESSIAN_STEP = 1e-4  # forward-difference step of the calibration Hessian, in x
_NEWTON_STEPS = 3  # calibration Newton steps, all on the Hessian at the seed


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
    their phases exp(-i 2 pi w dt), eigenvalues w and eigenvectors, each
    slice's index into them, and the slice length."""
    if not (span_ns > 0 and dt_ns > 0):
        raise ValueError("span_ns and dt_ns must be positive")
    n = int(np.ceil(span_ns / dt_ns))
    dt = span_ns / n
    amps, idx = np.unique([envelope_fn((k + 0.5) * dt) for k in range(n)],
                          return_inverse=True)
    w, v = np.linalg.eigh(ops.h_static(frame_ghz) + amps[:, None, None] * ops.drive_op)
    return np.exp(-1j * TWO_PI * dt * w), w, v, idx, dt


def _propagate_closed(psi0: np.ndarray, basis) -> Tuple[np.ndarray, np.ndarray]:
    """Statevector propagation through a ``_slice_eigenbases`` batch, each
    slice applied in its real eigenbasis as V_k (exp(-i 2 pi w_k dt) * V_k+ psi),
    with no dense unitary formed.  Returns the end state and the (n, dim)
    rows V_k+ psi_k-1 the slices form, ``transfer_gradient``'s forward pass."""
    ph, _, v, idx, _ = basis
    v = v.astype(complex)  # each product with a state would cast it again
    psi = psi0
    fwd = np.empty((len(idx), len(psi0)), dtype=complex)
    for k, j in enumerate(idx):
        fwd[k] = psi @ v[j]
        psi = v[j] @ (ph[j] * fwd[k])
    return psi, fwd


class GateSegment(NamedTuple):
    """The slices of a ``_slice_eigenbases`` batch as ``_propagate_open``
    plays them: the real eigenvectors V of each distinct slice, the cos and
    sin of its phase differences 2 pi dt (w_i - w_j), each slice's index
    into them, and the slice length."""

    v: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    idx: np.ndarray
    dt: float


def _gate_segment(basis) -> GateSegment:
    """The ``GateSegment`` of a ``_slice_eigenbases`` batch, its phase
    factors exp(i theta_ij) = conj(ph_i) ph_j from the batch's phases
    ph = exp(-i 2 pi w dt)."""
    ph, _, v, idx, dt = basis
    rot = ph.conj()[:, :, None] * ph[:, None, :]
    return GateSegment(v, rot.real.copy(), rot.imag.copy(), idx, dt)


def dissipate(x: np.ndarray, step: DissipatorStep) -> np.ndarray:
    """exp(D t) applied to a row-major state x[k n, k' n'], real or complex,
    flat or square, by a ``DissipatorStep``: one gather into the (n n', k k')
    view, E_R from the left and E_T from the right, each one real matmul on
    the data viewed as floats (E_T as kron(E_T^T, 1_2) on complex data), and
    one scatter back.  With a ``DissipatorStep.stack`` of p points' steps, x
    is a stack of p states along its leading axis, each taking its own
    point's factors in the same gather, stacked products and scatter."""
    y = x.reshape(-1)[step.gather].reshape(step.view)
    right = step.e_t_pairs if x.dtype.kind == "c" else step.e_t.swapaxes(-1, -2)
    y = step.e_r @ y.view(float) @ right
    return y.view(x.dtype).reshape(-1)[step.scatter].reshape(x.shape)


def _propagate_open(lious, rho0: np.ndarray, *segments: GateSegment) -> np.ndarray:
    """Master-equation propagation over ``segments``: one Strang split-step
    (Strang, SIAM J. Numer. Anal. 5, 1968) over the slices of each run of
    segments that share a slice length.  Each slice applies
    exp(D dt/2) U_k . U_k+ exp(D dt/2), and the dissipative halves of
    adjacent slices merge into one exp(D dt).

    ``rho0`` is a (p, dim, dim) stack of the states of p points of one
    device, p >= 1, and ``lious`` the sequence of their p Liouvillians; the
    end states come back as a stack of the same shape.  The stack steps
    through the one slice chain at once: each unitary's products are
    broadcast matmuls over the stack, and each state takes its own point's
    dissipator (``DissipatorStep.stack``).  Each point's end state is the
    one it gets alone, to the bit on the machines measured.

    The state is stepped as the real matrix R = Re rho + Im rho, which holds
    a Hermitian rho whole: its symmetric part is Re rho, its antisymmetric
    part Im rho.  In slice k's real eigenbasis V the unitary multiplies
    entry (i, j) by exp(-i theta_ij), theta_ij = 2 pi dt (w_i - w_j), which
    on R reads R~ = V^T R V, R~ <- cos(theta) o R~ - sin(theta) o R~^T,
    R = V R~ V^T (o elementwise).  The dissipator is real and commutes with
    transposition, so it acts on R as it acts on rho.  The end state is
    unpacked as rho = (R + R^T)/2 + i (R - R^T)/2.

    Raises ``ValueError`` when a member of the stack (named by its index)
    is not Hermitian within 1e-12: R would silently drop its anti-Hermitian
    part.  Every factor is completely positive and trace preserving, so each
    end state must be a density matrix (trace 1e-8, eigenvalues >= -1e-8); a
    violation raises ``IntegrationError``.
    """
    dim = lious[0].ops.dim
    if rho0.shape != (len(lious), dim, dim):
        raise ValueError(f"rho0 must be a stack of {len(lious)} {dim}x{dim} states")
    resid = np.max(np.abs(rho0 - rho0.conj().swapaxes(-1, -2)), axis=(1, 2))
    for i, res in enumerate(resid):
        if not res <= 1e-12:
            raise ValueError(f"rho0[{i}] is not Hermitian: max |rho0[{i}] - rho0[{i}]+| = "
                             f"{res:.3e} > 1e-12")
    r = rho0.real + rho0.imag
    if len(r) == 1:  # a lone state steps as a matrix: 2-D products cost less than a stack
        r = r[0]
    for dt, run in groupby(segments, key=lambda seg: seg.dt):
        half, full = map(DissipatorStep.stack, zip(*(l.dissipator_step(dt) for l in lious)))
        chain = []
        for seg in run:
            chain += [(seg.v[j], seg.cos[j], seg.sin[j]) for j in seg.idx]
        r = dissipate(r, half)
        for k, (v, c, s) in enumerate(chain):
            if k:
                r = dissipate(r, full)
            x = v.T @ r @ v
            r = v @ (c * x - s * x.swapaxes(-1, -2)) @ v.T
        r = dissipate(r, half)
    r_t = r.swapaxes(-1, -2)
    rho = (0.5 * (r + r_t) + 0.5j * (r - r_t)).reshape(-1, dim, dim)
    for i, state in enumerate(rho):
        try:
            validate_density_matrix(state, herm_tol=1e-10, trace_tol=1e-8, eig_tol=-1e-8)
        except ValueError as exc:
            span = sum(len(seg.idx) * seg.dt for seg in segments)
            raise IntegrationError(
                f"state {i} invariant violated after {span:g} ns: {exc}") from exc
    return rho


def _transfer_amplitude(ops: CompositeOperators, transition: str, basis):
    """c = <k1| U |k0> between the zero-photon dressed states of
    ``transition`` through a ``_slice_eigenbases`` batch, with the batch's
    forward rows (``_propagate_closed``) and the target <k1|."""
    k0, k1 = _TRANSITIONS[transition]
    _, v = ops.dressed
    psi, fwd = _propagate_closed(v[:, ops.dressed_index(k0)].astype(complex), basis)
    target = v[:, ops.dressed_index(k1)]
    return target.conj() @ psi, fwd, target


def transfer_probability(ops: CompositeOperators, transition: str, carrier_ghz: float,
                         amplitude: float, duration_ns: float,
                         dt_ns: float = CALIBRATION_STEP_NS, *, basis=None) -> float:
    """Closed-system population transfer k0 -> k1 for a lifted-Gaussian pulse,
    measured between zero-photon dressed states.  ``basis`` is the pulse's
    ``_slice_eigenbases`` batch at ``dt_ns`` when the caller already holds
    it (the calibration, which hands that batch on to the gates);
    without it the pulse is diagonalized here."""
    if basis is None:
        basis = _slice_eigenbases(ops, carrier_ghz, lifted_gaussian(amplitude, duration_ns),
                                  duration_ns, dt_ns)
    return float(np.abs(_transfer_amplitude(ops, transition, basis)[0]) ** 2)


def transfer_gradient(ops: CompositeOperators, transition: str, carrier_ghz: float,
                      amplitude: float, duration_ns: float,
                      dt_ns: float = CALIBRATION_STEP_NS) -> Tuple[float, np.ndarray]:
    """The transfer of ``transfer_probability`` and its exact gradient in
    (amplitude, carrier_ghz).

    With c = <target| U_n ... U_1 |psi0> and F = |c|^2, dF = 2 Re(c* dc) and
    dc = sum_k <lam_k| dU_k |psi_k-1>: one forward pass gives the states
    psi_k, one adjoint pass lam_k = U_k+1^+ ... U_n^+ |target>.  In slice k's
    eigenbasis V, dU_k = V (G o V+ dH_k V) V+ (o elementwise), where G holds
    the first divided differences of exp(-i 2 pi dt w) over the slice's
    eigenvalues, G_mn = -i 2 pi dt h_m h_n sinc(dt (w_m - w_n)) with
    h = exp(-i pi dt w), a form that stays exact where eigenvalues (nearly)
    coincide; the phases h move onto the two state vectors.  The slice
    derivatives are dH_k/d amplitude = e_k W, e_k the unit envelope, and
    dH_k/d carrier = -N, the frame generator of ``h_static``; both are real,
    as the eigenvectors are, so sinc o V+ dH V is a real product per
    distinct slice.
    """
    basis = _slice_eigenbases(ops, carrier_ghz, lifted_gaussian(amplitude, duration_ns),
                              duration_ns, dt_ns)
    ph, w, v, idx, dt = basis
    unit = lifted_gaussian(1.0, duration_ns)
    env = np.empty(len(w))
    env[idx] = [unit((k + 0.5) * dt) for k in range(len(idx))]
    x = np.pi * dt * (w[:, :, None] - w[:, None, :])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    vt = np.swapaxes(v, 1, 2)
    # sinc o V+ dH V per distinct slice for both parameters, (m, 2, dim, dim)
    dh = sinc[:, None] * np.stack([env[:, None, None] * (vt @ ops.drive_op @ v),
                                   -(vt * ops.frame_gen_vec) @ v], axis=1)
    c, fwd, target = _transfer_amplitude(ops, transition, basis)  # fwd[k] = V_k+ psi_k-1
    v = v.astype(complex)  # each product with a state would cast it again
    bwd = np.empty_like(fwd)  # V_k+ lam_k
    lam = target.astype(complex)
    for k in range(len(idx) - 1, -1, -1):
        bwd[k] = lam @ v[idx[k]]
        lam = v[idx[k]] @ (ph[idx[k]].conj() * bwd[k])
    half = np.exp(-1j * np.pi * dt * w)[idx]
    left = half * bwd.conj()
    left = np.stack([left.real, left.imag], axis=1)[:, None] @ dh[idx]  # real products
    dc = (-1j * TWO_PI * dt) * np.einsum("kan,kn->a", left[:, :, 0] + 1j * left[:, :, 1],
                                         half * fwd)
    return float(np.abs(c) ** 2), 2.0 * (c.conj() * dc).real


class PulseSlices(NamedTuple):
    """A calibrated pulse cut at the gate step: the ``_slice_eigenbases``
    batch of its slices on [0, duration] (phases, eigenvalues, real
    eigenvectors, slice indices, dt), and the (amplitude, carrier_ghz,
    duration_ns, step_ns) they were cut from."""

    basis: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]
    cut_from: Tuple[float, float, float, float]


@dataclass(frozen=True)
class CalibrationReport:
    """Result of one simulated Rabi calibration.  ``transfer_probability``
    is the closed-system transfer through ``slices``, the eigenbases of the
    pulse cut at the ``GATE_STEP_NS`` in effect when it was calibrated,
    which every gate that plays the pulse reuses.  ``slices`` is kept out
    of ``as_dict``, comparison, hashing and repr, so a report is still its
    five numbers; a report built without them, or whose pulse no longer
    matches them (say, by ``dataclasses.replace``), plays no gate."""

    transition: str
    amplitude: float
    duration_ns: float
    transfer_probability: float
    carrier_ghz: float
    slices: Optional[PulseSlices] = field(default=None, compare=False, repr=False)

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
    Gradients are exact (``transfer_gradient`` at the slice length
    ``dt_ns``).  The Hessian is the symmetrised forward difference of the
    gradient at the seed over ``_HESSIAN_STEP``, and all ``_NEWTON_STEPS``
    steps reuse it: five gradient evaluations in all.  A Hessian off by a
    relative e shrinks the distance to the peak by a factor of about e per
    step, and e is the change of the Hessian between the seed and the peak
    (the difference step adds ~1e-4).  On the shipped configs at 40-200 ns
    a fourth step would move x by at most 3e-9 in amplitude and 6e-8 MHz
    in carrier, near the ~sqrt(eps) to which double precision resolves the
    argument of a quadratic maximum.  The calibrated pulse is then cut at
    ``GATE_STEP_NS`` and diagonalized in one batch: its closed-system
    transfer is the reported one, and its slice eigenbases go with the report
    to the gates, which play exactly these slices.

    Raises ``CalibrationError`` when the Hessian at the seed is not negative
    definite (the seed is not in the basin of a maximum), when the end point
    leaves the domain 0.3-2.0 amp0, +-2 MHz, or when the reported transfer
    is below 0.999.
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

    def gradient(x):
        _, grad = transfer_gradient(ops, transition, carrier0 + 1e-3 * x[1], x[0] * amp0,
                                    duration_ns, dt_ns)
        return grad * (amp0, 1e-3)

    x = np.array([1.0, 0.0])
    grad = gradient(x)
    hess = np.array([gradient(x + _HESSIAN_STEP * e) - grad for e in np.eye(2)]) / _HESSIAN_STEP
    hess = 0.5 * (hess + hess.T)
    if not (hess[0, 0] < 0 and np.linalg.det(hess) > 0):
        raise CalibrationError(
            f"pi_{transition}: transfer Hessian not negative definite at "
            f"amplitude {x[0]:.6f} amp0, carrier offset {x[1]:+.6f} MHz "
            f"(duration {duration_ns} ns); the analytic seed is not near a maximum"
        )
    for step in range(_NEWTON_STEPS):
        if step:
            grad = gradient(x)
        x = x - np.linalg.solve(hess, grad)
    if not (0.3 <= x[0] <= 2.0 and abs(x[1]) <= 2.0):
        raise CalibrationError(
            f"pi_{transition}: search ended at amplitude {x[0]:.6f} amp0, carrier "
            f"offset {x[1]:+.6f} MHz, outside 0.3-2.0 amp0 and +-2 MHz "
            f"(duration {duration_ns} ns)"
        )
    amplitude, carrier = x[0] * amp0, carrier0 + 1e-3 * x[1]
    basis = _slice_eigenbases(ops, carrier, lifted_gaussian(amplitude, duration_ns),
                              duration_ns, GATE_STEP_NS)
    best = transfer_probability(ops, transition, carrier, amplitude, duration_ns,
                                GATE_STEP_NS, basis=basis)
    if best < 0.999:
        raise CalibrationError(
            f"pi_{transition} transfer {best:.6f} < 0.999 at duration {duration_ns} ns, "
            f"amplitude {x[0]:.6f} amp0, carrier offset {x[1]:+.6f} MHz"
        )
    amplitude, duration_ns, carrier = float(amplitude), float(duration_ns), float(carrier)
    return CalibrationReport(transition, amplitude, duration_ns, best, carrier, PulseSlices(
        basis, (amplitude, carrier, duration_ns, GATE_STEP_NS)))


def change_frame(vec_rho: np.ndarray, ops: CompositeOperators, from_ghz: float,
                 to_ghz: float, t_abs_ns: float) -> np.ndarray:
    """Re-express a vectorized state in a different rotating frame at absolute
    time ``t_abs_ns``: rho -> U rho U+ with U = exp(i 2 pi (to - from) t N)."""
    if from_ghz == to_ghz or t_abs_ns == 0.0:
        return vec_rho
    ph = np.exp(1j * TWO_PI * (to_ghz - from_ghz) * t_abs_ns * ops.frame_gen_vec)
    return vec_rho * (ph[:, None] * ph.conj()[None, :]).reshape(-1)


def _gate_slices(pulse: CalibrationReport, liou: Liouvillian, gap_ns: float):
    """The ``_propagate_open`` segments of one gate: the pulse's slices,
    whose eigenbases it carries from its calibration, then ``gap_ns`` of
    free evolution on its own grid of ceil(gap / ``GATE_STEP_NS``) slices,
    from one ``eigh`` of H_static in the pulse's carrier frame.  When both
    grids have the same slice length (duration and gap both multiples of
    the step) they are one split-step, the slices of the whole span cut at
    once.

    Raises ``ValueError`` when the pulse carries no slices, or slices cut
    from another amplitude, carrier, duration or step than its own at the
    ``GATE_STEP_NS`` in effect."""
    cut = (pulse.amplitude, pulse.carrier_ghz, pulse.duration_ns, GATE_STEP_NS)
    if pulse.slices is None or pulse.slices.cut_from != cut:
        raise ValueError(
            f"pi_{pulse.transition} carries no slices of its pulse (amplitude "
            f"{pulse.amplitude!r}, carrier {pulse.carrier_ghz!r} GHz, {pulse.duration_ns:g} ns) "
            f"at the gate step {GATE_STEP_NS:g} ns; run_rabi_calibration cuts them")
    pulse_slices = _gate_segment(pulse.slices.basis)
    if gap_ns == 0.0:
        return (pulse_slices,)
    return pulse_slices, _gate_segment(_slice_eigenbases(liou.ops, pulse.carrier_ghz,
                                                         lambda t: 0.0, gap_ns, GATE_STEP_NS))


def _apply_gate(state: Tuple[np.ndarray, float, float], pulse: CalibrationReport,
                lious, gap_ns: float, slices) -> Tuple[np.ndarray, float, float]:
    """One gate on ``(rho, elapsed_ns, frame_ghz)``: change to the pulse's
    carrier frame at the elapsed time, then propagate over the pulse plus
    ``gap_ns`` of free evolution by the gate's ``_gate_slices``.  As in
    ``_propagate_open``, rho is a (p, dim, dim) stack of states and
    ``lious`` their p Liouvillians."""
    rho, t_abs, frame = state
    v = change_frame(rho.reshape(len(rho), -1), lious[0].ops, frame, pulse.carrier_ghz, t_abs)
    rho = _propagate_open(lious, v.reshape(rho.shape), *slices)
    return rho, t_abs + (pulse.duration_ns + gap_ns), pulse.carrier_ghz


def prepare_sequences(
    rho_ss: np.ndarray,
    seqs: Iterable[GateSequence],
    lious: Sequence[Liouvillian],
    calibrations: Dict[str, CalibrationReport],
    gap_ns: float,
) -> Dict[str, Tuple[np.ndarray, float, float]]:
    """Evolve the steady state through each sequence's calibrated gates with
    dissipation on.

    ``rho_ss`` is a (p, dim, dim) stack of the steady states of p points
    of one device, p >= 1, and ``lious`` the sequence of their p
    Liouvillians: the points share every gate's slice chain
    (``_propagate_open``), and each sequence's state is the (p, dim, dim)
    stack of the points' states, each the one its point gets alone.

    The sequences are walked as a tree of gate prefixes: a chain already
    propagated for one sequence is extended, not repeated (x2 extends x1, y1
    and y2 extend y0), so the six protocol sequences take five gate
    propagations instead of nine and give the same states as propagating
    each sequence on its own.  Each gate is one ``_propagate_open`` call over
    its pulse plus a ``gap_ns`` guard, in the gate's own carrier frame; frame
    changes are the diagonal phases of ``change_frame`` evaluated at the
    elapsed time.  The pulses' slice eigenbases come with their calibrations,
    so no pulse is diagonalized here; each pulse's ``_gate_slices``, with
    their phase factors, are put together once per call and serve every
    gate that plays it.  Returns
    ``{label: (rho, elapsed_ns, frame_ghz)}`` with each state still
    expressed in its last gate's frame (bare frame for x0).
    """
    done = {(): (rho_ss.astype(complex), 0.0, 0.0)}
    slices = {}
    out = {}
    for seq in seqs:
        for n, gate in enumerate(seq.gates, start=1):
            if seq.gates[:n] not in done:
                if gate not in slices:
                    slices[gate] = _gate_slices(calibrations[gate], lious[0], gap_ns)
                done[seq.gates[:n]] = _apply_gate(done[seq.gates[:n - 1]], calibrations[gate],
                                                  lious, gap_ns, slices[gate])
        out[seq.label] = done[seq.gates]
    return out
