import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritherm.constants import GHZ_TO_MK, bose_occupation
from tritherm.hilbert import (
    ResonatorSpec,
    TransmonSpec,
    build_composite_operators,
    thermal_populations,
    validate_density_matrix,
)
from tritherm.lindblad import (
    DissipationSpec,
    Liouvillian,
    SteadyStateError,
    build_liouvillian,
    dissipator_superoperator,
    steady_state,
    thermal_occupations,
    unit_superoperator,
)

seed = 20260312


def test_thermal_occupation_oracle():
    # frozen Bose factor at the anchor resonator frequency
    levels = build_composite_operators(
        TransmonSpec(0.36, 10.013), ResonatorSpec(4.906, 0.018, n_fock=2)).levels()
    occ = thermal_occupations(levels, 4.906, 160.0)
    assert abs(occ.n_r - 0.2979684788343554) < 1e-12
    # explicit Bose form
    x = 4.906 * GHZ_TO_MK / 160.0
    assert abs(occ.n_r - 1.0 / np.expm1(x)) < 1e-14


def test_occupation_vanishes_at_depth():
    assert bose_occupation(5.0, 1e-4) == 0.0
    assert bose_occupation(5.0, 1.0) < 1e-100


def test_dissipation_spec_validation():
    with pytest.raises(ValueError):
        DissipationSpec(gamma_eg_mhz=-0.1, gamma_fe_mhz=0.1, bath_t_mk=100.0)
    with pytest.raises(ValueError):
        DissipationSpec(gamma_eg_mhz=0.1, gamma_fe_mhz=0.1, bath_t_mk=0.0)
    spec = DissipationSpec(gamma_eg_mhz=0.1, gamma_fe_mhz=0.1, bath_t_mk=100.0)
    # kappa derived from the loaded Q
    assert abs(spec.resolved_kappa_mhz(7.75, 12000.0) - 1e3 * 7.75 / 12000.0) < 1e-12
    consistent = DissipationSpec(0.1, 0.1, 100.0, kappa_mhz=1e3 * 7.75 / 12000.0)
    assert consistent.resolved_kappa_mhz(7.75, 12000.0) == consistent.kappa_mhz
    clash = DissipationSpec(0.1, 0.1, 100.0, kappa_mhz=0.9)
    with pytest.raises(ValueError):
        clash.resolved_kappa_mhz(7.75, 12000.0)


def test_jump_operator_set(small_liou):
    assert set(small_liou.jump_operators) == {"eg", "ge", "fe", "ef", "r_down", "r_up"}
    # raising/lowering rate ratio obeys detailed balance by construction
    occ = small_liou.occupations
    up = np.linalg.norm(small_liou.jump_operators["ge"]) ** 2
    down = np.linalg.norm(small_liou.jump_operators["eg"]) ** 2
    assert abs(up / down - occ.n_eg / (occ.n_eg + 1.0)) < 1e-12
    levels = small_liou.ops.levels()
    assert abs(up / down - np.exp(-levels.f_ge_ghz * GHZ_TO_MK / 100.0)) < 1e-12


def test_dephasing_channel_optional(small_ops):
    spec = DissipationSpec(0.03, 0.06, 100.0, gamma_phi_mhz=0.2)
    liou = build_liouvillian(small_ops, spec)
    assert "phi" in liou.jump_operators
    # dephasing operator is diagonal in the level index
    phi = liou.jump_operators["phi"]
    assert np.max(np.abs(phi - np.diag(np.diag(phi)))) == 0.0


def test_unit_superoperator_is_commutator():
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    rho = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lhs = (unit_superoperator(h) @ rho.reshape(-1)).reshape(6, 6)
    rhs = -2j * np.pi * (h @ rho - rho @ h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dissipator_superoperator_matches_lindblad_form():
    rng = np.random.default_rng(seed + 1)
    lop = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lhs = (dissipator_superoperator(lop) @ rho.reshape(-1)).reshape(5, 5)
    ldl = lop.conj().T @ lop
    rhs = lop @ rho @ lop.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_steady_state_boltzmann_weak_coupling():
    # coupling small enough that channel competition cannot shift populations
    ops = build_composite_operators(
        TransmonSpec(0.36, 10.013),
        ResonatorSpec(7.75, 2e-4, n_fock=2, q_loaded=3100.0))
    liou = build_liouvillian(ops, DissipationSpec(0.1, 0.2, 100.0))
    rho = steady_state(liou)
    pops = ops.protocol_populations(rho)
    ref = thermal_populations(ops.levels(), 100.0)
    np.testing.assert_allclose(pops.as_array(), ref.as_array(), atol=1e-6)


def test_steady_state_frame_invariant(small_liou):
    rho0 = steady_state(small_liou, frame_ghz=0.0)
    rhof = steady_state(small_liou, frame_ghz=small_liou.ops.rspec.fr_ghz)
    # the frame term is proportional to the excitation number and cancels
    # exactly inside the N_i == N_j block, so the two solves differ only by
    # rounding in the generator's diagonal
    assert np.max(np.abs(rho0 - rhof)) < 1e-6


def test_steady_state_residual(small_liou):
    rho = steady_state(small_liou)
    validate_density_matrix(rho)
    l = small_liou.static_super(0.0)
    resid = np.linalg.norm(l @ rho.reshape(-1))
    norm = np.linalg.norm(l.toarray(), 2)
    assert resid < 1e-10 * norm


def test_steady_state_degenerate_raises(small_ops):
    # decoupled resonator leaves the top transmon level dark: |d> x thermal
    # is a second steady state and extraction must refuse to pick one
    ops = build_composite_operators(
        TransmonSpec(0.36, 10.013), ResonatorSpec(7.75, 0.0, n_fock=2))
    liou = build_liouvillian(ops, DissipationSpec(0.03, 0.06, 100.0))
    with pytest.raises(SteadyStateError):
        steady_state(liou)


def test_steady_state_rejects_block_leak(small_liou):
    # a bare charge jump changes the transmon level without a photon, so
    # L rho L+ carries N_i == N_j entries out of the block
    jumps = dict(small_liou.jump_operators, x=1e-3 * small_liou.ops.drive_op)
    liou = Liouvillian(small_liou.ops, small_liou.dissipation,
                       small_liou.occupations, jumps)
    with pytest.raises(SteadyStateError, match="out of the"):
        steady_state(liou)


def test_steady_state_rejects_singular_coherence_block():
    # resonator tuned onto f_ge with no coupling and no dissipation: the
    # |e,0><g,1| coherence neither rotates nor decays
    tspec = TransmonSpec(0.36, 10.013)
    probe = build_composite_operators(tspec, ResonatorSpec(7.75, 0.0, n_fock=2))
    ops = build_composite_operators(
        tspec, ResonatorSpec(float(probe.energies[1]), 0.0, n_fock=2))
    occ = thermal_occupations(ops.levels(), ops.rspec.fr_ghz, 100.0)
    liou = Liouvillian(ops, DissipationSpec(0.03, 0.06, 100.0), occ,
                       {"eg": 0.0 * ops.sigma(0, 1)})
    with pytest.raises(SteadyStateError, match="coherence block"):
        steady_state(liou)


# the acceptance-criterion-4 device: default transmon, weak coupling, Q 3100
WEAK_DEVICE_SCRIPT = """
import dataclasses, json, sys
from tritherm.config import load_config
from tritherm.lindblad import DissipationSpec, build_liouvillian, steady_state

system = load_config(sys.argv[1]).system
rspec = dataclasses.replace(system.resonator, coupling_ghz=2e-4, q_loaded=3100.0)
ops = dataclasses.replace(system, resonator=rspec).build_operators()
pops = {}
for t_mk in (50.0, 100.0, 200.0):
    rho = steady_state(build_liouvillian(ops, DissipationSpec(0.1, 0.2, t_mk)))
    pops[t_mk] = ops.subpopulations(rho).tolist()
print(json.dumps(pops))
"""


@pytest.fixture(scope="module")
def weak_ops(default_config):
    system = default_config.system
    rspec = dataclasses.replace(system.resonator, coupling_ghz=2e-4, q_loaded=3100.0)
    return dataclasses.replace(system, resonator=rspec).build_operators()


def test_steady_state_blas_thread_independent(weak_ops):
    # subprocesses, because OpenBLAS reads its thread count once at load
    repo = pathlib.Path(__file__).resolve().parents[1]
    config = repo / "configs" / "default.json"
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"),
                                               os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in sorted({1, os.cpu_count() or 1}):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=pythonpath)
        out = subprocess.run([sys.executable, "-c", WEAK_DEVICE_SCRIPT, str(config)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, f"{threads} threads:\n{out.stderr}"
        runs[threads] = {float(t): np.array(p) for t, p in json.loads(out.stdout).items()}

    first = runs[1]
    for threads, pops in runs.items():
        for t_mk, sub in pops.items():
            assert np.max(np.abs(sub - first[t_mk])) < 1e-10, (threads, t_mk)
            want = thermal_populations(weak_ops.levels(), t_mk).as_array()
            dev = np.max(np.abs(sub[:3] / sub[:3].sum() - want))
            assert dev < 1e-6, f"{threads} threads, {t_mk} mK: {dev:.2e}"


@pytest.mark.parametrize("t_mk, p_d, tol", [(50.0, 6.345e-8, 1e-8),
                                            (200.0, 1.1195e-2, 1e-6)])
def test_steady_state_dark_level_oracle(weak_ops, t_mk, p_d, tol):
    # frozen |d> population on the criterion-4 device, from a 40-digit
    # mpmath solve of the same float64 generator; protocol_populations
    # renormalizes |d> away, so criterion 4 alone cannot see an error here
    rho = steady_state(build_liouvillian(weak_ops, DissipationSpec(0.1, 0.2, t_mk)))
    assert abs(weak_ops.subpopulations(rho)[3] - p_d) < tol


@settings(max_examples=25, deadline=None)
@given(t_mk=st.floats(20.0, 400.0), f_ghz=st.floats(2.0, 14.0))
def test_bose_factor_detailed_balance(t_mk, f_ghz):
    n = bose_occupation(f_ghz, t_mk)
    x = f_ghz * GHZ_TO_MK / t_mk
    assert n >= 0.0
    assert abs(n / (n + 1.0) - np.exp(-x)) < 1e-13
