import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from tritherm import pulses as pulses_mod
from tritherm.hilbert import Populations, validate_density_matrix
from tritherm.lindblad import (
    DissipationSpec,
    IntegrationError,
    build_liouvillian,
    steady_state,
    unit_superoperator,
)
from tritherm.pulses import (
    STEP_NS,
    GateSequence,
    PulseEnvelope,
    SEQUENCE_LABELS,
    _apply_gate,
    _propagate_open,
    all_sequences,
    apply_sequence_ideal,
    compile_sequence,
    prepare_sequences,
    run_rabi_calibration,
    transfer_probability,
)

seed = 20260312

# the six sequence definitions are the protocol contract; freeze them
PROTOCOL_TABLE = {
    "x0": ((), (0, 1, 2)),
    "x1": (("ge",), (1, 0, 2)),
    "x2": (("ge", "ef"), (1, 2, 0)),
    "y0": (("ef",), (0, 2, 1)),
    "y1": (("ef", "ge"), (2, 0, 1)),
    "y2": (("ef", "ge", "ef"), (2, 1, 0)),
}

GATE_PERMS = {"ge": (1, 0, 2), "ef": (0, 2, 1)}


def test_envelope_lifted_gaussian_shape():
    env = PulseEnvelope("gaussian_drive", 4.98, 0.01, 56.0)
    assert env.value(-1.0) == 0.0
    assert env.value(57.0) == 0.0
    # lifted so the truncation at +-2 sigma is continuous
    assert abs(env.value(0.0)) < 1e-15
    assert abs(env.value(56.0)) < 1e-15
    assert abs(env.value(28.0) - 0.01) < 1e-15
    assert env.value(20.0) < env.value(28.0)


def test_envelope_area_matches_quadrature():
    env = PulseEnvelope("gaussian_drive", 4.98, 0.01, 56.0)
    t = np.linspace(0.0, 56.0, 200001)
    num = np.trapezoid([env.value(x) for x in t], t)
    assert abs(env.area_ns() - num) < 1e-8


def test_envelope_rectangular():
    env = PulseEnvelope("rectangular_probe", 7.75, 2.5e-4, 2000.0)
    assert env.value(0.0) == 2.5e-4
    assert env.value(1999.9) == 2.5e-4
    assert env.value(2000.1) == 0.0
    assert abs(env.area_ns() - 2.5e-4 * 2000.0) < 1e-15


def test_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope("square_drive", 4.98, 0.01, 56.0)
    with pytest.raises(ValueError):
        PulseEnvelope("gaussian_drive", 4.98, 0.01, 56.0, sigma_ns=10.0)
    with pytest.raises(ValueError):
        PulseEnvelope("rectangular_probe", 4.98, 0.01, 56.0, sigma_ns=14.0)
    with pytest.raises(ValueError):
        PulseEnvelope("gaussian_drive", 4.98, -0.01, 56.0)


def test_sequence_table_frozen():
    assert set(SEQUENCE_LABELS) == set(PROTOCOL_TABLE)
    for label, (gates, perm) in PROTOCOL_TABLE.items():
        seq = compile_sequence(label)
        assert seq.gates == gates
        assert seq.expected_permutation == perm


def test_sequence_permutations_cover_s3():
    perms = {seq.expected_permutation for seq in all_sequences()}
    assert len(perms) == 6


def test_sequence_permutation_composes_from_gates():
    # the tabulated permutation must equal the composition of the per-gate
    # swaps applied left to right
    for seq in all_sequences():
        p = np.arange(3)
        for gate in seq.gates:
            p = p[list(GATE_PERMS[gate])]
        assert tuple(p) == seq.expected_permutation


def test_compile_rejects_unknown_label():
    with pytest.raises(ValueError):
        compile_sequence("z9")
    with pytest.raises(ValueError):
        GateSequence("x1", (("ef",)), (1, 0, 2))


def test_ideal_sequence_application():
    p = Populations(0.9, 0.09, 0.01)
    out = apply_sequence_ideal(p, compile_sequence("x1"))
    np.testing.assert_allclose(out.as_array(), [0.09, 0.9, 0.01], atol=1e-15)
    out = apply_sequence_ideal(p, compile_sequence("x0"))
    np.testing.assert_allclose(out.as_array(), p.as_array(), atol=1e-15)
    out = apply_sequence_ideal(p, compile_sequence("y2"))
    np.testing.assert_allclose(out.as_array(), [0.01, 0.09, 0.9], atol=1e-15)


def test_double_ge_is_identity():
    p = Populations(0.7, 0.2, 0.1)
    seq = compile_sequence("x1")
    out = apply_sequence_ideal(apply_sequence_ideal(p, seq), seq)
    np.testing.assert_allclose(out.as_array(), p.as_array(), atol=1e-15)


def test_calibration_duration_range(small_ops):
    with pytest.raises(ValueError):
        run_rabi_calibration(small_ops, "ge", 30.0)
    with pytest.raises(ValueError):
        run_rabi_calibration(small_ops, "ge", 250.0)
    with pytest.raises(ValueError):
        run_rabi_calibration(small_ops, "gf", 56.0)


def test_calibration_warns_against_short_t1(small_ops):
    # T1 = 100 ns against a 56 ns pulse: sequence errors are not pulse-limited
    spec = DissipationSpec(gamma_eg_mhz=10.0, gamma_fe_mhz=10.0, bath_t_mk=100.0)
    with pytest.warns(UserWarning):
        run_rabi_calibration(small_ops, "ge", 56.0, dissipation=spec)


def test_calibrated_pi_transfers(calibrations):
    for transition, report in calibrations.items():
        assert report.transition == transition
        assert report.transfer_probability >= 0.999
        assert 40.0 <= report.duration_ns <= 200.0
        d = report.as_dict()
        assert set(d) == {"transition", "amplitude", "duration_ns",
                          "transfer_probability", "carrier_ghz"}


def test_double_pi_returns_ground(default_ops, calibrations):
    # pi_ge applied twice on |g> must come back with p_g >= 0.998 closed-system
    rep = calibrations["ge"]
    _, v = default_ops.dressed(0.0)
    psi = v[:, default_ops.dressed_index(0)].astype(complex)
    from tritherm.pulses import _propagate_closed

    env = rep.envelope()
    for _ in range(2):
        psi = _propagate_closed(default_ops, rep.carrier_ghz, env.value,
                                rep.duration_ns, psi, 0.25)
    p_g = float(np.abs(v[:, default_ops.dressed_index(0)].conj() @ psi) ** 2)
    assert p_g >= 0.998


def test_transfer_probability_off_resonance(default_ops, calibrations):
    rep = calibrations["ge"]
    on = transfer_probability(default_ops, "ge", rep.carrier_ghz, rep.amplitude,
                              rep.duration_ns)
    off = transfer_probability(default_ops, "ge", rep.carrier_ghz + 0.05,
                               rep.amplitude, rep.duration_ns)
    assert on >= 0.999
    assert off < 0.5


@settings(max_examples=30, deadline=None)
@given(
    p=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    label=st.sampled_from(SEQUENCE_LABELS),
)
def test_ideal_application_preserves_multiset(p, label):
    total = sum(p)
    pops = Populations(*(x / total for x in p))
    out = apply_sequence_ideal(pops, compile_sequence(label))
    assert sorted(out.as_array()) == pytest.approx(sorted(pops.as_array()))
    assert abs(sum(out.as_array()) - 1.0) < 1e-12


def test_split_step_free_decay(small_liou):
    ops = small_liou.ops
    rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho0[ops.rspec.n_states, ops.rspec.n_states] = 1.0  # |e, 0>
    traj = [rho0]
    for _ in range(8):  # 0 .. 400 ns in 50 ns spans
        traj.append(_propagate_open(small_liou, 0.0, lambda t: 0.0, 50.0, traj[-1], STEP_NS))
    for rho in traj:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
    # population flows out of e
    assert ops.subpopulations(traj[-1])[1] < 1.0


def test_split_step_step_insensitive(small_liou):
    # the splitting error is second order in the slice: 3.3e-6 between 0.25
    # and 0.125 ns on this drive, 1.5e-7 between the slices used here
    ops = small_liou.ops
    rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho0[0, 0] = 1.0
    drive = PulseEnvelope("gaussian_drive", carrier_ghz=4.98, amplitude=0.005,
                          duration_ns=56.0)
    a = _propagate_open(small_liou, 4.98, drive.value, 56.0, rho0, STEP_NS / 4)
    b = _propagate_open(small_liou, 4.98, drive.value, 56.0, rho0, STEP_NS / 8)
    assert np.max(np.abs(a - b)) < 1e-6


def test_split_step_input_validation(small_liou):
    dim = small_liou.ops.dim
    rho0 = np.eye(dim, dtype=complex) / dim
    off = lambda t: 0.0
    with pytest.raises(ValueError):
        _propagate_open(small_liou, 0.0, off, -0.5, rho0, STEP_NS)
    with pytest.raises(ValueError):
        _propagate_open(small_liou, 0.0, off, 1.0, np.eye(3, dtype=complex) / 3, STEP_NS)
    with pytest.raises(ValueError):
        _propagate_open(small_liou, 0.0, off, 1.0, rho0, 0.0)


def test_split_step_rejects_invalid_end_state(small_liou):
    dim = small_liou.ops.dim
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0], rho0[1, 1] = 1.1, -0.1
    with pytest.raises(IntegrationError, match="eigenvalue"):
        _propagate_open(small_liou, 0.0, lambda t: 0.0, 1.0, rho0, STEP_NS)


def test_split_step_matches_reference_integration(small_ops, small_liou):
    # one calibrated pi_ge gate plus guard from the steady state, against an
    # adaptive integration of the full generator at tight tolerances
    pulse = run_rabi_calibration(small_ops, "ge", 56.0).envelope()
    span = pulse.duration_ns + 4.0
    rho0 = steady_state(small_liou).astype(complex)
    l_static = small_liou.static_super(pulse.carrier_ghz)
    l_drive = unit_superoperator(small_ops.drive_op)
    sol = solve_ivp(lambda t, v: l_static @ v + pulse.value(t) * (l_drive @ v),
                    (0.0, span), rho0.reshape(-1), rtol=1e-10, atol=1e-12)
    assert sol.success
    ref = sol.y[:, -1].reshape(rho0.shape)
    rho = _propagate_open(small_liou, pulse.carrier_ghz, pulse.value, span, rho0, STEP_NS)
    dev = np.max(np.abs(small_ops.protocol_populations(rho).as_array()
                        - small_ops.protocol_populations(ref).as_array()))
    assert dev < 1e-8
    err = np.max(np.abs(rho - ref))
    assert err < 2e-5
    # second-order splitting: halving the slice cuts the error about 4x
    half = _propagate_open(small_liou, pulse.carrier_ghz, pulse.value, span, rho0,
                           STEP_NS / 2)
    assert np.max(np.abs(half - ref)) < err / 3


@pytest.fixture(scope="module")
def gates_50mk(default_config, default_ops, calibrations):
    """Default device at 50 mK: Liouvillian, steady state, calibrated pulses."""
    spec = dataclasses.replace(default_config.dissipation, bath_t_mk=50.0)
    liou = build_liouvillian(default_ops, spec)
    pulses = {t: r.envelope() for t, r in calibrations.items()}
    return liou, steady_state(liou), pulses, default_config.protocol.gap_ns


def test_gates_prepare_density_matrices_at_50mk(gates_50mk):
    # every split step is completely positive, so no state may dip below -1e-8
    liou, rho_ss, pulses, gap = gates_50mk
    prepared = prepare_sequences(rho_ss, all_sequences(), liou, pulses, gap_ns=gap)
    assert tuple(prepared) == SEQUENCE_LABELS
    for rho, _, _ in prepared.values():
        validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-8, eig_tol=-1e-8)


def test_prefix_walk_matches_independent_sequences(gates_50mk, monkeypatch):
    liou, rho_ss, pulses, gap = gates_50mk
    independent = {}
    for seq in all_sequences():
        state = (rho_ss.astype(complex), 0.0, 0.0)
        for gate in seq.gates:
            state = _apply_gate(state, pulses[gate], liou, gap)
        independent[seq.label] = state

    calls = []
    def counted(*args):
        calls.append(args[1])
        return _apply_gate(*args)
    monkeypatch.setattr(pulses_mod, "_apply_gate", counted)
    walked = prepare_sequences(rho_ss, all_sequences(), liou, pulses, gap_ns=gap)
    assert len(calls) == 5  # x2 extends x1, y1 and y2 extend y0
    for label, (rho, elapsed_ns, frame_ghz) in walked.items():
        want_rho, want_elapsed, want_frame = independent[label]
        assert np.array_equal(rho, want_rho)
        assert elapsed_ns == want_elapsed
        assert frame_ghz == want_frame
