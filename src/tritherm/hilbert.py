"""Truncated Hilbert space: transmon eigenbasis, composite operators, thermal states.

The transmon is diagonalized in the charge basis and truncated to its lowest
``n_transmon_levels`` eigenstates; the resonator is truncated at ``n_fock``
photons (Fock states 0..n_fock).  Everything downstream works in the composite
eigenbasis-x-Fock product space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .constants import GHZ_TO_MK

MAX_COMPOSITE_DIM = 256  # guard against accidentally huge product spaces


class TruncationError(RuntimeError):
    """Charge-basis truncation too small for converged eigenenergies."""


class ResourceError(RuntimeError):
    """Composite dimension exceeds the configured maximum."""


@dataclass(frozen=True)
class TransmonSpec:
    """Flux-tunable transmon in the charge basis.

    ``ec_ghz`` and ``ej_max_ghz`` are E_c/h and E_J^max/h in GHz.  The
    effective Josephson energy is E_J^max |cos(pi Phi/Phi_0)| (symmetric
    junctions).  ``n_charge_states`` is the half-width N of the charge basis
    n in [-N, N].
    """

    ec_ghz: float
    ej_max_ghz: float
    flux_quantum_fraction: float = 0.0
    gate_charge: float = 0.0
    n_transmon_levels: int = 4
    n_charge_states: int = 30

    def __post_init__(self):
        if self.ec_ghz <= 0 or self.ej_max_ghz <= 0:
            raise ValueError("ec_ghz and ej_max_ghz must be positive")
        if self.n_transmon_levels < 3:
            raise ValueError("need at least the three protocol levels")
        if self.n_charge_states < 2 * self.n_transmon_levels:
            raise ValueError("n_charge_states must be >= 2*n_transmon_levels")

    @property
    def ej_ghz(self) -> float:
        return self.ej_max_ghz * abs(np.cos(np.pi * self.flux_quantum_fraction))


@dataclass(frozen=True)
class ResonatorSpec:
    """Readout resonator: frequency, photon truncation, coupling, loaded Q.

    ``n_fock`` is the maximum photon number retained, i.e. the resonator
    block has n_fock + 1 states.  ``coupling_ghz`` is the single effective
    charge-coupling amplitude (participation times zero-point voltage,
    folded into one number) in GHz.
    """

    fr_ghz: float
    coupling_ghz: float
    n_fock: int = 6
    q_loaded: float = 3100.0

    def __post_init__(self):
        if self.fr_ghz <= 0 or self.q_loaded <= 0:
            raise ValueError("fr_ghz and q_loaded must be positive")
        if self.n_fock < 2:
            raise ValueError("need at least photon states 0..2")
        if self.coupling_ghz < 0:
            raise ValueError("coupling_ghz must be non-negative")

    @property
    def n_states(self) -> int:
        return self.n_fock + 1


@dataclass(frozen=True)
class LevelEnergies:
    """Energies of the three protocol levels relative to ground, in GHz.

    Frequencies are stored positive; the thermometry module applies the sign
    convention in its exponents.
    """

    e_g: float
    e_e: float
    e_f: float

    def __post_init__(self):
        if not (self.e_g < self.e_e < self.e_f):
            raise ValueError("level energies must be strictly ascending")
        if self.anharmonicity_ghz <= 0:
            raise ValueError("f_ge - f_ef must be positive for a transmon")

    @property
    def f_ge_ghz(self) -> float:
        return self.e_e - self.e_g

    @property
    def f_gf_ghz(self) -> float:
        return self.e_f - self.e_g

    @property
    def f_ef_ghz(self) -> float:
        return self.e_f - self.e_e

    @property
    def anharmonicity_ghz(self) -> float:
        return self.f_ge_ghz - self.f_ef_ghz

    @classmethod
    def from_frequencies(cls, f_ge_ghz: float, f_gf_ghz: float) -> "LevelEnergies":
        """Build directly from the two transition frequencies (anchor inputs)."""
        return cls(0.0, f_ge_ghz, f_gf_ghz)


@dataclass(frozen=True)
class Populations:
    p_g: float
    p_e: float
    p_f: float

    def __post_init__(self):
        for p in (self.p_g, self.p_e, self.p_f):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"population {p} outside [0, 1]")
        if self.p_g + self.p_e + self.p_f > 1.0 + 1e-12:
            raise ValueError("populations sum above 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_g, self.p_e, self.p_f])



def _charge_diag(ec, ej, ng, ncut):
    n = np.arange(-ncut, ncut + 1)
    h = np.diag(4.0 * ec * (n - ng) ** 2)
    off = -0.5 * ej * np.ones(2 * ncut)
    h += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigh(h)


def transmon_spectrum(spec: TransmonSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenenergies, eigenvectors and charge matrix of the truncated transmon.

    Returns ``(energies, eigvecs, nmat)`` with energies relative to the ground
    state, eigenvectors as columns of a (2N+1, n_levels) array, and the charge
    operator in the retained eigenbasis.  The eigenvector gauge is fixed so
    nearest-neighbour elements <k|n|k+1> are non-negative.

    Raises ``TruncationError`` if doubling the charge cutoff moves f_ge by
    more than 1e-9 GHz.
    """
    ej = spec.ej_ghz
    w, v = _charge_diag(spec.ec_ghz, ej, spec.gate_charge, spec.n_charge_states)
    w2, _ = _charge_diag(spec.ec_ghz, ej, spec.gate_charge, 2 * spec.n_charge_states)
    if abs((w2[1] - w2[0]) - (w[1] - w[0])) > 1e-9:
        raise TruncationError(
            f"f_ge moved by {abs((w2[1] - w2[0]) - (w[1] - w[0])):.2e} GHz when "
            f"doubling the charge cutoff {spec.n_charge_states}"
        )
    nlev = spec.n_transmon_levels
    vecs = v[:, :nlev].copy()
    ncharge = np.arange(-spec.n_charge_states, spec.n_charge_states + 1) - spec.gate_charge
    nmat = vecs.T @ (ncharge[:, None] * vecs)
    # fix the gauge column by column: sign of |k> chosen against the already
    # fixed |k-1> so that <k-1|n|k> >= 0
    signs = np.ones(nlev)
    for k in range(1, nlev):
        if signs[k - 1] * nmat[k - 1, k] < 0:
            signs[k] = -1.0
    vecs *= signs
    nmat = signs[:, None] * nmat * signs[None, :]
    return w[:nlev] - w[0], vecs, nmat


def diagonalize_transmon(spec: TransmonSpec) -> Tuple[LevelEnergies, np.ndarray]:
    """Diagonalize 4 E_c (n - n_g)^2 - E_J cos(phi) and wrap the three
    protocol levels.  See ``transmon_spectrum`` for the raw spectrum."""
    energies, vecs, _ = transmon_spectrum(spec)
    return LevelEnergies(energies[0], energies[1], energies[2]), vecs


@dataclass
class CompositeOperators:
    """Operator set on the transmon (x) resonator product space.

    Basis ordering is row-major (transmon level major, photon number minor):
    index = k * (n_fock + 1) + n.  ``charge_lower`` is the nearest-neighbour
    lowering part of the charge operator (|k><k+1| elements), the piece kept
    by the rotating-wave approximation for both the drive and the coupling.
    """

    tspec: TransmonSpec
    rspec: ResonatorSpec
    energies: np.ndarray  # transmon eigenenergies rel. ground, GHz
    nmat: np.ndarray  # charge operator in the transmon eigenbasis
    dim: int = field(init=False)

    def __post_init__(self):
        nlev, nres = self.tspec.n_transmon_levels, self.rspec.n_states
        self.dim = nlev * nres
        if self.dim > MAX_COMPOSITE_DIM:
            raise ResourceError(f"composite dimension {self.dim} exceeds {MAX_COMPOSITE_DIM}")
        eye_r = np.eye(nres)
        self.a = np.kron(np.eye(nlev), np.diag(np.sqrt(np.arange(1.0, nres)), 1))
        self.adag = self.a.conj().T
        self.number_op = self.adag @ self.a
        self.projectors = [
            np.kron(np.diag((np.arange(nlev) == k).astype(float)), eye_r)
            for k in range(nlev)
        ]
        lower = np.zeros((nlev, nlev))
        for k in range(nlev - 1):
            lower[k, k + 1] = self.nmat[k, k + 1]
        self.charge_lower = np.kron(lower, eye_r)
        self.charge_raise = self.charge_lower.T.copy()
        self.drive_op = self.charge_lower + self.charge_raise
        self.n_level_vec = np.repeat(np.arange(nlev), nres).astype(float)
        self.n_phot_vec = np.tile(np.arange(nres), nlev).astype(float)
        # rotating-frame generator N = sum_k k|k><k| (x) I + I (x) a'a
        self.frame_gen_vec = self.n_level_vec + self.n_phot_vec
        self._dressed: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    def sigma(self, k: int, l: int) -> np.ndarray:
        """|k><l| on the transmon, identity on the resonator."""
        nlev = self.tspec.n_transmon_levels
        m = np.zeros((nlev, nlev))
        m[k, l] = 1.0
        return np.kron(m, np.eye(self.rspec.n_states))

    def h_static(self, frame_ghz: float = 0.0) -> np.ndarray:
        """Static RWA Hamiltonian (units of h GHz) in a frame rotating at
        ``frame_ghz`` per excitation:

        H/h = sum_k (eps_k - k f) |k><k| + (f_r - f) a'a
              + g (n_+ a + n_- a'),  nearest-neighbour n_+/-.

        Commutes with the frame generator, so dressed states do not depend
        on the frame choice.
        """
        diag = (
            np.repeat(self.energies, self.rspec.n_states)
            - frame_ghz * self.n_level_vec
            + (self.rspec.fr_ghz - frame_ghz) * self.n_phot_vec
        )
        h = np.diag(diag)
        g = self.rspec.coupling_ghz
        if g != 0.0:
            h = h + g * (self.charge_raise @ self.a + self.charge_lower @ self.adag)
        return h

    def dressed(self, frame_ghz: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        if frame_ghz not in self._dressed:
            self._dressed[frame_ghz] = np.linalg.eigh(self.h_static(frame_ghz))
        return self._dressed[frame_ghz]

    def dressed_index(self, level: int, photons: int = 0) -> int:
        """Index of the dressed eigenstate with maximum overlap on the bare
        |level, photons> product state."""
        _, v = self.dressed(0.0)
        bare = level * self.rspec.n_states + photons
        return int(np.argmax(np.abs(v[bare, :]) ** 2))

    def dressed_transition_ghz(self, k0: int, k1: int) -> float:
        """Coupling-shifted k0 -> k1 transition frequency at zero photons."""
        w, _ = self.dressed(0.0)
        return w[self.dressed_index(k1)] - w[self.dressed_index(k0)]

    def subpopulations(self, rho: np.ndarray) -> np.ndarray:
        """Transmon-level occupations tr(P_k rho), all retained levels."""
        nres = self.rspec.n_states
        diag = np.real(np.diag(rho))
        return diag.reshape(self.tspec.n_transmon_levels, nres).sum(axis=1)

    def protocol_populations(self, rho: np.ndarray) -> Populations:
        """Renormalized three-level sub-populations (|d> traced out)."""
        p = self.subpopulations(rho)[:3]
        return Populations(*(p / p.sum()))

    def levels(self) -> LevelEnergies:
        return LevelEnergies(self.energies[0], self.energies[1], self.energies[2])


def build_composite_operators(tspec: TransmonSpec, rspec: ResonatorSpec) -> CompositeOperators:
    """Diagonalize the transmon and assemble the product-space operator set."""
    energies, _, nmat = transmon_spectrum(tspec)
    return CompositeOperators(tspec, rspec, energies, nmat)


def thermal_populations(levels: LevelEnergies, t_mk: float) -> Populations:
    """Boltzmann weights of the three protocol levels, normalized to one.
    The simulator reaches them through the steady state; this closed form is
    kept for the tests and perfbench, which use it as the thermal
    reference."""
    if t_mk <= 0:
        raise ValueError(f"temperature must be positive, got {t_mk} mK")
    w = np.exp(-GHZ_TO_MK * np.array([0.0, levels.f_ge_ghz, levels.f_gf_ghz]) / t_mk)
    w /= w.sum()
    return Populations(*w)


def validate_density_matrix(rho: np.ndarray, herm_tol=1e-12, trace_tol=1e-10,
                            eig_tol=-1e-10) -> None:
    """Assert Hermiticity, unit trace and positivity within tolerances."""
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError(f"trace {np.trace(rho).real} != 1 within {trace_tol}")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < eig_tol:
        raise ValueError("density matrix has a significantly negative eigenvalue")
