"""Liouvillian construction, the dissipator's exponential, and steady states.

Superoperators act on row-major vectorized density matrices in a rotating
frame (see ``CompositeOperators.h_static``): vec(rho)[i*dim + j] =
rho[i, j], so that vec(A rho B) = (A kron B^T) vec(rho).  All time
evolution (calibration, gates and the readout probe) is the one split-step
in ``pulses``, which takes its dissipative factors from
``Liouvillian.dissipator_step``; no dense dim^2 x dim^2 generator is
formed.

Six thermal jump operators are used: raising and lowering on the g-e and
e-f transmon transitions and on the resonator.  A direct f-g channel is
forbidden by selection rules and never constructed; the fourth retained
transmon level carries no explicit rate and thermalizes only through the
coupling to the lossy resonator.  An optional pure-dephasing channel is
exposed for robustness experiments and is off by default.

Every jump operator and the RWA Hamiltonian change the excitation number
N = k + n by the same amount on both sides of rho, so the static generator
keeps the entries with N_i == N_j in one invariant block (Albert & Jiang,
PRA 89, 022118, 2014).  ``steady_state`` solves only that block and
eliminates its coherences by a Schur complement, which leaves a small
population generator free of the GHz coherence frequencies.  At weak
coupling that generator is about a thousand times better conditioned than
the full Liouvillian, whose slowest relaxation (|d> through the resonator,
about kappa (g/Delta)^2) sits near 1e-13 of its norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import bose_occupation, boltzmann_exponent, rate_from_mhz, kappa_rate_from_mhz
from .hilbert import CompositeOperators, LevelEnergies, validate_density_matrix


class SteadyStateError(RuntimeError):
    """Null space of the Liouvillian is degenerate or the residual is large."""


class IntegrationError(RuntimeError):
    """A propagated state violated the density-matrix invariants."""


@dataclass(frozen=True)
class DissipationSpec:
    """Dissipation rates and bath temperature.

    ``gamma_eg_mhz`` is the zero-temperature e->g relaxation rate 1/T1 in
    MHz (likewise ``gamma_fe_mhz`` for f->e); ``kappa_mhz`` is the resonator
    linewidth kappa/(2 pi) in MHz, or None to derive it from the resonator's
    loaded Q.  ``gamma_phi_mhz`` adds pure dephasing when nonzero.
    """

    gamma_eg_mhz: float
    gamma_fe_mhz: float
    bath_t_mk: float
    kappa_mhz: Optional[float] = None
    gamma_phi_mhz: float = 0.0

    def __post_init__(self):
        for g in (self.gamma_eg_mhz, self.gamma_fe_mhz, self.gamma_phi_mhz):
            if g < 0:
                raise ValueError("rates must be non-negative")
        if self.kappa_mhz is not None and self.kappa_mhz < 0:
            raise ValueError("kappa_mhz must be non-negative")
        if self.bath_t_mk <= 0:
            raise ValueError("bath_t_mk must be positive")

    def resolved_kappa_mhz(self, fr_ghz: float, q_loaded: float) -> float:
        """Linewidth in MHz, derived from Q when not set explicitly.

        When both kappa_mhz and q_loaded are given they must agree within 1%.
        """
        derived = 1e3 * fr_ghz / q_loaded
        if self.kappa_mhz is None:
            return derived
        if abs(self.kappa_mhz - derived) > 0.01 * derived:
            raise ValueError(
                f"kappa_mhz={self.kappa_mhz} inconsistent with "
                f"f_r/Q = {derived:.4f} MHz (must agree within 1%)"
            )
        return self.kappa_mhz


@dataclass(frozen=True)
class ThermalOccupations:
    """Bose-Einstein occupations for the two transmon transitions and the
    resonator at the bath temperature."""

    n_eg: float
    n_fe: float
    n_r: float

    def __post_init__(self):
        for n in (self.n_eg, self.n_fe, self.n_r):
            if n < 0:
                raise ValueError("thermal occupations must be non-negative")


def thermal_occupations(levels: LevelEnergies, fr_ghz: float, t_mk: float) -> ThermalOccupations:
    """n = 1/(exp(h f / k_B T) - 1) per transition and for the resonator.

    The detailed-balance identity n + 1 = n exp(h f / k_B T) is checked to
    1e-12 relative on each occupation.
    """
    occ = ThermalOccupations(
        n_eg=bose_occupation(levels.f_ge_ghz, t_mk),
        n_fe=bose_occupation(levels.f_ef_ghz, t_mk),
        n_r=bose_occupation(fr_ghz, t_mk),
    )
    for n, f in ((occ.n_eg, levels.f_ge_ghz), (occ.n_fe, levels.f_ef_ghz), (occ.n_r, fr_ghz)):
        if n == 0.0:  # deep quantum regime, identity holds in the limit
            continue
        lhs, rhs = n + 1.0, n * np.exp(boltzmann_exponent(f, t_mk))
        if abs(lhs - rhs) > 1e-12 * lhs:
            raise AssertionError("detailed-balance identity violated")
    return occ


def unit_superoperator(op: np.ndarray) -> sp.csr_matrix:
    """Commutator superoperator -i 2 pi (H kron I - I kron H^T) for a
    Hamiltonian given in GHz, acting on row-major vec(rho), time in ns."""
    eye = sp.identity(op.shape[0], format="csr")
    h = sp.csr_matrix(op)
    return (-2j * np.pi) * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.T, format="csr"))


def dissipator_superoperator(lop: np.ndarray) -> sp.csr_matrix:
    """D[L] rho = L rho L+ - (L+L rho + rho L+L)/2 on row-major vec(rho)."""
    l = sp.csr_matrix(lop)
    eye = sp.identity(lop.shape[0], format="csr")
    ldl = (l.conj().T @ l).tocsr()
    out = sp.kron(l, l.conj(), format="csr")
    out = out - 0.5 * (sp.kron(ldl, eye, format="csr") + sp.kron(eye, ldl.T, format="csr"))
    return out.tocsr()


@dataclass
class Liouvillian:
    """Static generator plus jump operators for one system configuration.

    ``jump_operators`` maps channel labels to rate-scaled operators
    (sqrt(rate) absorbed, rates per ns).  ``static_super(frame_ghz)`` builds
    the full static superoperator in the given rotating frame; drives enter
    only through the Hamiltonian slices of the split-step (see ``pulses``).
    """

    ops: CompositeOperators
    dissipation: DissipationSpec
    occupations: ThermalOccupations
    jump_operators: Dict[str, np.ndarray]
    _cache: Dict = field(default_factory=dict, init=False, repr=False)

    def dissipator(self) -> sp.csr_matrix:
        if "diss" not in self._cache:
            out = None
            for lop in self.jump_operators.values():
                d = dissipator_superoperator(lop)
                out = d if out is None else out + d
            self._cache["diss"] = out.tocsr()
        return self._cache["diss"]

    def dissipator_step(self, dt_ns: float) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """exp(D dt/2) and exp(D dt), the dissipative half and full slices of
        the split-step.  Both stay sparse and, like D, do not depend on the
        rotating frame: every jump operator changes the excitation number by
        a fixed amount, so the frame phases cancel in each term of D[L]."""
        key = ("diss_step", dt_ns)
        if key not in self._cache:
            half = spla.expm((0.5 * dt_ns * self.dissipator()).tocsc()).tocsr()
            self._cache[key] = (half, (half @ half).tocsr())
        return self._cache[key]

    def static_super(self, frame_ghz: float = 0.0) -> sp.csr_matrix:
        key = ("static", frame_ghz)
        if key not in self._cache:
            self._cache[key] = (
                unit_superoperator(self.ops.h_static(frame_ghz)) + self.dissipator()
            ).tocsr()
        return self._cache[key]


def build_liouvillian(ops: CompositeOperators, dissipation: DissipationSpec) -> Liouvillian:
    """Assemble the six thermal jump operators (plus optional dephasing).

    Raising/lowering pairs share a transition frequency, so their rates obey
    detailed balance by construction: Gamma_up/Gamma_down = n/(n+1).
    """
    levels = ops.levels()
    occ = thermal_occupations(levels, ops.rspec.fr_ghz, dissipation.bath_t_mk)
    g_eg = rate_from_mhz(dissipation.gamma_eg_mhz)
    g_fe = rate_from_mhz(dissipation.gamma_fe_mhz)
    kappa = kappa_rate_from_mhz(
        dissipation.resolved_kappa_mhz(ops.rspec.fr_ghz, ops.rspec.q_loaded)
    )
    jumps = {
        "eg": np.sqrt(g_eg * (occ.n_eg + 1.0)) * ops.sigma(0, 1),
        "ge": np.sqrt(g_eg * occ.n_eg) * ops.sigma(1, 0),
        "fe": np.sqrt(g_fe * (occ.n_fe + 1.0)) * ops.sigma(1, 2),
        "ef": np.sqrt(g_fe * occ.n_fe) * ops.sigma(2, 1),
        "r_down": np.sqrt(kappa * (occ.n_r + 1.0)) * ops.a,
        "r_up": np.sqrt(kappa * occ.n_r) * ops.adag,
    }
    if dissipation.gamma_phi_mhz > 0.0:
        g_phi = rate_from_mhz(dissipation.gamma_phi_mhz)
        jumps["phi"] = np.sqrt(2.0 * g_phi) * np.diag(ops.n_level_vec).astype(complex)
    return Liouvillian(ops, dissipation, occ, jumps)


def steady_state(liou: Liouvillian, frame_ghz: float = 0.0) -> np.ndarray:
    """Drive-off steady state, solved on its symmetry block and reduced to
    populations.

    The static generator commutes with the excitation number N, so it maps
    the entries rho[i, j] with N_i == N_j onto themselves; this is checked
    exactly before it is used.  Inside that block the coherences c are
    eliminated through the Schur complement c = -L_cc^-1 L_cp p, and the
    populations p are the null vector of the effective generator
    L_pp - L_pc L_cc^-1 L_cp, whose scale is set by the rates rather than
    the GHz coherence frequencies.  The frame term is proportional to N and
    cancels inside the block, so the result does not depend on
    ``frame_ghz``.

    Raises ``SteadyStateError`` when the generator leaks out of the block,
    when L_cc is singular or ill-conditioned, when the effective null space
    is not one-dimensional, when the residual exceeds 1e-10 times the norm
    of the full generator, or when the result is not a valid density matrix
    (eigenvalues below -1e-10 included).
    """
    l = liou.static_super(frame_ghz)
    dim = liou.ops.dim
    n_exc = liou.ops.frame_gen_vec
    in_block = (n_exc[:, None] == n_exc[None, :]).reshape(-1)
    block = np.flatnonzero(in_block)
    if l[np.flatnonzero(~in_block)][:, block].count_nonzero():
        raise SteadyStateError("static generator maps weight out of the N_i == N_j block")

    l_blk = l[block][:, block].toarray()
    row, col = np.divmod(block, dim)
    pop, coh = row == col, row != col
    l_cc = l_blk[np.ix_(coh, coh)]
    cond_cc = np.linalg.cond(l_cc)
    if not cond_cc < 1e8:
        raise SteadyStateError(
            f"coherence block singular or ill-conditioned (condition number {cond_cc:.3e})"
        )
    coh_from_pop = np.linalg.solve(l_cc, l_blk[np.ix_(coh, pop)])
    l_eff = l_blk[np.ix_(pop, pop)] - l_blk[np.ix_(pop, coh)] @ coh_from_pop
    _, svals, vh = np.linalg.svd(l_eff)
    # numerical-zero floor, not a relaxation-gap bound: slow mixing modes at
    # weak coupling sit orders above eps*|L_eff| and must not trip this
    rank_tol = max(50.0 * np.finfo(float).eps * svals[0], 10.0 * svals[-1])
    if svals[-2] < rank_tol:
        raise SteadyStateError(
            f"degenerate null space: two smallest singular values "
            f"{svals[-1]:.3e}, {svals[-2]:.3e} against norm {svals[0]:.3e}"
        )
    p = vh[-1].conj()
    p /= p.sum()
    vec = np.zeros(dim * dim, dtype=complex)
    vec[block[pop]] = p
    vec[block[coh]] = -coh_from_pop @ p
    rho = vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)

    # sqrt(|L|_1 |L|_inf) bounds the spectral norm from above without a
    # dense SVD of the full generator
    l_norm = np.sqrt(spla.norm(l, 1) * spla.norm(l, np.inf))
    resid = np.linalg.norm(l @ rho.reshape(-1))
    if resid > 1e-10 * l_norm:
        raise SteadyStateError(f"steady-state residual {resid:.3e} exceeds 1e-10*|L|")
    try:
        validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, eig_tol=-1e-10)
    except ValueError as exc:
        raise SteadyStateError(
            f"extracted state is not a density matrix: {exc} "
            f"(relative gap {svals[-2] / svals[0]:.2e})"
        ) from exc
    return rho
