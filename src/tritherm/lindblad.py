"""Liouvillian construction, the dissipator's exponential, and steady states.

Superoperators act on row-major vectorized density matrices in a rotating
frame (see ``CompositeOperators.h_static``): vec(rho)[i*dim + j] =
rho[i, j], so that vec(A rho B) = (A kron B^T) vec(rho).  All time
evolution (calibration, gates and the readout probe) is the one split-step
in ``pulses``, which takes its dissipative factors from
``Liouvillian.dissipator_step``; no dim^2 x dim^2 superoperator is formed.

Six thermal jump operators are used: raising and lowering on the g-e and
e-f transmon transitions and on the resonator.  A direct f-g channel is
forbidden by selection rules and never constructed; the fourth retained
transmon level carries no explicit rate and thermalizes only through the
coupling to the lossy resonator.  An optional pure-dephasing channel is
exposed for robustness experiments and is off by default.

Every jump operator is built and kept on the one factor of transmon (x)
resonator it acts on (``Liouvillian.transmon_jumps``, ``resonator_jumps``), so
the dissipator splits as D = D_T (x) 1 + 1 (x) D_R on the (k k', n n') view of
rho[k n, k' n'].  The two parts commute, and exp(D t) is the pair of small
exponentials exp(D_T t) (nlev^2 square) and exp(D_R t) ((n_fock + 1)^2
square), computed by scaling and squaring.

Every jump operator and the RWA Hamiltonian change the excitation number
N = k + n by the same amount on both sides of rho, so the static generator
keeps the entries with N_i == N_j in one invariant block (Albert & Jiang,
PRA 89, 022118, 2014).  ``steady_state`` builds only that block, from the
images of its basis matrices under the matrix-form Lindblad map, and
eliminates its coherences by a Schur complement, which leaves a small
population generator free of the GHz coherence frequencies.  At weak
coupling that generator is about a thousand times better conditioned than
the full Liouvillian, whose slowest relaxation (|d> through the resonator,
about kappa (g/Delta)^2) sits near 1e-13 of its norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .constants import (_check_finite_fields, bose_occupation, boltzmann_exponent,
                        kappa_rate_from_mhz, rate_from_mhz)
from .hilbert import CompositeOperators, LevelEnergies, validate_density_matrix


class SteadyStateError(RuntimeError):
    """Null space of the Liouvillian is degenerate or the residual is large."""


class IntegrationError(RuntimeError):
    """A propagated state violated the density-matrix invariants."""


@dataclass(frozen=True)
class DissipationSpec:
    """Dissipation rates and bath temperature.

    ``gamma_eg_mhz`` is the zero-temperature e->g relaxation rate 1/T1 in
    MHz (likewise ``gamma_fe_mhz`` for f->e); the resonator linewidth
    kappa/(2 pi) = f_r/Q comes from the resonator block.  ``gamma_phi_mhz``
    adds pure dephasing when nonzero.
    """

    gamma_eg_mhz: float
    gamma_fe_mhz: float
    bath_t_mk: float
    gamma_phi_mhz: float = 0.0

    def __post_init__(self):
        for g in (self.gamma_eg_mhz, self.gamma_fe_mhz, self.gamma_phi_mhz):
            if not g >= 0:  # also rejects NaN, as every range check here
                raise ValueError("rates must be non-negative")
        if not self.bath_t_mk > 0:
            raise ValueError("bath_t_mk must be positive")
        _check_finite_fields(self)


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small dense matrix by scaling and squaring: a is halved
    until its 1-norm is at most 1/2, where 18 Taylor terms reach double
    precision (truncation below 0.5^19/19! ~ 1.6e-23 relative)."""
    norm = np.abs(a).sum(axis=0).max()
    squarings = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    out = term = np.eye(len(a))
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _local_dissipator(lops, m: int) -> np.ndarray:
    """Sum of D[L] rho = L rho L+ - (L+L rho + rho L+L)/2 over real operators
    on one factor of dimension m, acting on its row-major vec (m^2 x m^2)."""
    eye = np.eye(m)
    out = np.zeros((m * m, m * m))
    for lop in lops:
        ldl = lop.T @ lop
        out += np.kron(lop, lop) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return out


class DissipatorStep(NamedTuple):
    """exp(D t) in the form ``pulses.dissipate`` applies it: the transmon
    and resonator factors E_T = exp(D_T t) and E_R = exp(D_R t); E_T as a
    right product on complex data viewed as interleaved float pairs,
    kron(E_T^T, 1_2); the flat indices that gather a row-major
    rho[k n, k' n'] into its (n n', k k') view and scatter that view back;
    and the view's shape, its last axis -1 (nlev^2 numbers, real or complex).
    A ``stack`` of the steps of p points holds each factor as a (p, m, m)
    stack, the indices of the p states laid end to end, and a (p, ...) view."""

    e_t: np.ndarray
    e_r: np.ndarray
    e_t_pairs: np.ndarray
    gather: np.ndarray
    scatter: np.ndarray
    view: Tuple[int, ...]

    def transpose(self) -> "DissipatorStep":
        """exp(D t)^T, the step of adjoint rows: every factor transposed
        (and made contiguous), the layout unchanged."""
        return self._replace(**{f: getattr(self, f).swapaxes(-1, -2).copy()
                                for f in ("e_t", "e_r", "e_t_pairs")})

    @staticmethod
    def stack(steps: Sequence["DissipatorStep"]) -> "DissipatorStep":
        """The steps of p points of one device as one step on their p states
        stacked along a leading axis: each factor stacked, and the gather and
        scatter indices repeated per state at its offset in the stack.  One
        step is returned as it is."""
        if len(steps) == 1:
            return steps[0]
        size = len(steps[0].gather)
        at = size * np.arange(len(steps))[:, None]
        return DissipatorStep(*(np.stack(f) for f in zip(*(s[:3] for s in steps))),
                              (at + steps[0].gather).reshape(-1),
                              (at + steps[0].scatter).reshape(-1), (len(steps), *steps[0].view))


@dataclass
class Liouvillian:
    """Static generator plus jump operators for one system configuration.

    Every channel acts on one factor of transmon (x) resonator: its real,
    rate-scaled operator (sqrt(rate) absorbed, rates per ns) on that factor
    is kept in ``transmon_jumps`` or ``resonator_jumps``.  Drives enter only
    through the Hamiltonian slices of the split-step (see ``pulses``).
    """

    ops: CompositeOperators
    occupations: ThermalOccupations
    transmon_jumps: Dict[str, np.ndarray]
    resonator_jumps: Dict[str, np.ndarray]
    _cache: Dict = field(default_factory=dict, init=False, repr=False)

    @property
    def jump_operators(self) -> Dict[str, np.ndarray]:
        """Every channel as its operator on the composite space, in the order
        ``build_liouvillian`` makes them: the thermal pairs, then dephasing."""
        eye_t, eye_r = np.eye(self.ops.tspec.n_transmon_levels), np.eye(self.ops.rspec.n_states)
        lops = {**{k: np.kron(a, eye_r) for k, a in self.transmon_jumps.items()},
                **{k: np.kron(eye_t, b) for k, b in self.resonator_jumps.items()}}
        if "phi" in lops:
            lops["phi"] = lops.pop("phi")
        return lops

    def dissipator_step(self, dt_ns: float) -> Tuple[DissipatorStep, DissipatorStep]:
        """exp(D dt/2) and exp(D dt), the dissipative half and full slices of
        the split-step, with D = D_T (x) 1 + 1 (x) D_R on the (k k', n n')
        view X[k k', n n'] = rho[k n, k' n'], where D acts as D_T X + X D_R^T.
        The two parts of D commute, so exp(D t) = exp(D_T t) (x) exp(D_R t)
        exactly.  Like D, they do not depend on the rotating frame: every
        jump operator changes the excitation number by a fixed amount, so
        the frame phases cancel in each term of D[L].  Both are formed once
        per slice length."""
        key = ("diss_step", dt_ns)
        if key not in self._cache:
            nlev, nres = self.ops.tspec.n_transmon_levels, self.ops.rspec.n_states
            half = tuple(_expm(0.5 * dt_ns * _local_dissipator(jumps.values(), m)) for jumps, m in
                         ((self.transmon_jumps, nlev), (self.resonator_jumps, nres)))
            gather = np.arange(self.ops.dim ** 2).reshape(nlev, nres, nlev, nres)
            gather = gather.transpose(1, 3, 0, 2).reshape(-1)
            self._cache[key] = tuple(
                DissipatorStep(e_t, e_r, np.kron(e_t.T, np.eye(2)), gather, np.argsort(gather),
                               (nres ** 2, -1))
                for e_t, e_r in (half, tuple(e @ e for e in half)))
        return self._cache[key]


def build_liouvillian(ops: CompositeOperators, dissipation: DissipationSpec) -> Liouvillian:
    """Assemble the six thermal jump operators (plus optional dephasing) on their factors.

    Raising/lowering pairs share a transition frequency, so their rates obey
    detailed balance by construction: Gamma_up/Gamma_down = n/(n+1).
    """
    occ = thermal_occupations(ops.levels(), ops.rspec.fr_ghz, dissipation.bath_t_mk)
    g_eg = rate_from_mhz(dissipation.gamma_eg_mhz)
    g_fe = rate_from_mhz(dissipation.gamma_fe_mhz)
    kappa = kappa_rate_from_mhz(1e3 * ops.rspec.fr_ghz / ops.rspec.q_loaded)
    e = np.eye(ops.tspec.n_transmon_levels)  # np.outer(e[k], e[l]) is |k><l|
    a = np.diag(np.sqrt(np.arange(1.0, ops.rspec.n_states)), 1)
    transmon = {
        "eg": np.sqrt(g_eg * (occ.n_eg + 1.0)) * np.outer(e[0], e[1]),
        "ge": np.sqrt(g_eg * occ.n_eg) * np.outer(e[1], e[0]),
        "fe": np.sqrt(g_fe * (occ.n_fe + 1.0)) * np.outer(e[1], e[2]),
        "ef": np.sqrt(g_fe * occ.n_fe) * np.outer(e[2], e[1]),
    }
    if dissipation.gamma_phi_mhz > 0.0:
        g_phi = rate_from_mhz(dissipation.gamma_phi_mhz)
        transmon["phi"] = np.sqrt(2.0 * g_phi) * np.diag(np.arange(len(e), dtype=float))
    return Liouvillian(ops, occ, transmon, {"r_down": np.sqrt(kappa * (occ.n_r + 1.0)) * a,
                                            "r_up": np.sqrt(kappa * occ.n_r) * a.T})


def _block_generator(liou: Liouvillian, in_block: np.ndarray):
    """Columns L[:, block] of the static generator on row-major vec(rho), and
    its 1- and inf-norms, from the images L(E_ij) of the basis matrices,
    one row i (dim images) at a time; the full generator is never formed.

    With G = -i 2 pi H - K/2 and K = sum L+L, the matrix-form Lindblad map
    L(rho) = G rho + rho G+ + sum_l L_l rho L_l+ sends E_ij to
    G[:, i] e_j^T + e_i G[:, j]^+ + sum_l L_l[:, i] L_l[:, j]^+, so each
    image costs O(dim^2)."""
    dim = liou.ops.dim
    ls = np.stack(list(liou.jump_operators.values())).astype(complex)
    g = -2j * np.pi * liou.ops.h_static(0.0) - 0.5 * np.einsum("lab,lac->bc", ls.conj(), ls)
    diag = np.arange(dim)
    cols = []
    norm_1, row_sums = 0.0, np.zeros(dim * dim)
    for i in range(dim):
        images = np.tensordot(ls[:, :, i], ls.conj(), axes=(0, 0)).transpose(2, 0, 1).copy()
        images[diag, :, diag] += g[:, i]
        images[:, i, :] += g.conj().T
        mag = np.abs(images).reshape(dim, -1)
        norm_1 = max(norm_1, float(mag.sum(axis=1).max()))
        row_sums += mag.sum(axis=0)
        cols.append(images[in_block[i * dim:(i + 1) * dim]].reshape(-1, dim * dim))
    return np.concatenate(cols).T, norm_1, float(row_sums.max())


def steady_state(liou: Liouvillian) -> np.ndarray:
    """Drive-off steady state, solved on its symmetry block and reduced to
    populations.

    The static generator commutes with the excitation number N, so it maps
    the entries rho[i, j] with N_i == N_j onto themselves; this is checked
    exactly before it is used.  The block is built from the images of its
    basis matrices under the matrix-form Lindblad map (``_block_generator``).
    Inside it the coherences c are eliminated through the Schur complement
    c = -L_cc^-1 L_cp p, and the populations p are the null vector of the
    effective generator L_pp - L_pc L_cc^-1 L_cp, whose scale is set by the
    rates rather than the GHz coherence frequencies.  A rotating frame adds
    a term proportional to N, which cancels inside the block, so the
    generator is built in the lab frame of ``h_static(0.0)``.

    Raises ``SteadyStateError`` when the generator leaks out of the block,
    when L_cc is singular or ill-conditioned, when the effective null space
    is not one-dimensional, when the residual exceeds 1e-10 times the norm
    of the full generator, or when the result is not a valid density matrix
    (eigenvalues below -1e-10 included).
    """
    dim = liou.ops.dim
    n_exc = liou.ops.frame_gen_vec
    in_block = (n_exc[:, None] == n_exc[None, :]).reshape(-1)
    block = np.flatnonzero(in_block)
    l_cols, norm_1, norm_inf = _block_generator(liou, in_block)
    if np.count_nonzero(l_cols[~in_block]):
        raise SteadyStateError("static generator maps weight out of the N_i == N_j block")

    l_blk = l_cols[block]
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
    # dense SVD of the full generator; rho vanishes off the block
    l_norm = np.sqrt(norm_1 * norm_inf)
    resid = np.linalg.norm(l_cols @ rho.reshape(-1)[block])
    if resid > 1e-10 * l_norm:
        raise SteadyStateError(f"steady-state residual {resid:.3e} exceeds 1e-10*|L|")
    try:
        validate_density_matrix(rho)
    except ValueError as exc:
        raise SteadyStateError(
            f"extracted state is not a density matrix: {exc} "
            f"(relative gap {svals[-2] / svals[0]:.2e})"
        ) from exc
    return rho
