import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, expm_frechet

from oracles import apply_sequence_ideal, propagate_open_complex, slice_unitaries
from superops import static_super, unit_superoperator
from tritherm import pulses as pulses_mod
from tritherm.constants import TWO_PI
from tritherm.hilbert import Populations, validate_density_matrix
from tritherm.lindblad import (
    DissipationSpec,
    IntegrationError,
    build_liouvillian,
    steady_state,
)
from tritherm.pulses import (
    CALIBRATION_STEP_NS,
    GATE_STEP_NS,
    CalibrationError,
    SEQUENCE_LABELS,
    _apply_gate,
    _gate_segment,
    _gate_slices,
    _lifted_gauss_area,
    _propagate_closed,
    _propagate_open,
    _slice_eigenbases,
    all_sequences,
    compile_sequence,
    lifted_gaussian,
    prepare_sequences,
    run_rabi_calibration,
    transfer_gradient,
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
    env = lifted_gaussian(0.01, 56.0)
    assert env(-1.0) == 0.0
    assert env(57.0) == 0.0
    # lifted so the truncation at +-2 sigma is continuous
    assert abs(env(0.0)) < 1e-15
    assert abs(env(56.0)) < 1e-15
    assert abs(env(28.0) - 0.01) < 1e-15
    assert env(20.0) < env(28.0)


def test_envelope_area_matches_quadrature():
    env = lifted_gaussian(0.01, 56.0)
    t = np.linspace(0.0, 56.0, 200001)
    num = np.trapezoid([env(x) for x in t], t)
    assert abs(0.01 * _lifted_gauss_area(56.0) - num) < 1e-8


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
    # pi_ge applied twice on |g> must come back with p_g >= 0.998
    # closed-system, through the slices the calibration hands to the gates
    rep = calibrations["ge"]
    _, v = default_ops.dressed
    psi = v[:, default_ops.dressed_index(0)].astype(complex)
    for _ in range(2):
        psi, _ = _propagate_closed(psi, rep.slices.basis)
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


def test_calibration_evaluation_budget(default_config, default_ops, monkeypatch):
    # five exact gradients at the calibration step (the seed, two for the
    # Hessian, two more Newton steps) plus the reported transfer at the gate
    # step per transition, through the batch the gates play
    calls = []

    def counted_gradient(ops, transition, carrier, amp, duration_ns, dt_ns):
        calls.append(("gradient", transition, dt_ns))
        return transfer_gradient(ops, transition, carrier, amp, duration_ns, dt_ns)

    def counted_transfer(ops, transition, carrier, amp, duration_ns, dt_ns, *, basis):
        calls.append(("transfer", transition, dt_ns))
        return transfer_probability(ops, transition, carrier, amp, duration_ns, dt_ns,
                                    basis=basis)

    monkeypatch.setattr(pulses_mod, "transfer_gradient", counted_gradient)
    monkeypatch.setattr(pulses_mod, "transfer_probability", counted_transfer)
    for transition in ("ge", "ef"):
        run_rabi_calibration(default_ops, transition,
                             default_config.protocol.pulse_duration_ns)
        assert calls.count(("gradient", transition, CALIBRATION_STEP_NS)) == 5
        assert calls.count(("transfer", transition, GATE_STEP_NS)) == 1
    assert len(calls) == 12


@pytest.mark.parametrize("transition", ["ge", "ef"])
def test_transfer_gradient_matches_central_differences(default_config, default_ops,
                                                       transition):
    # on the calibration's coordinates x = (amplitude / amp0, carrier offset
    # in MHz), at the analytic seed where the search starts and well off the
    # peak; the value is transfer_probability's to the bit
    ops = default_ops
    duration = default_config.protocol.pulse_duration_ns
    k0, k1 = {"ge": (0, 1), "ef": (1, 2)}[transition]
    amp0 = 0.25 / (abs(ops.nmat[k0, k1]) * _lifted_gauss_area(duration))
    carrier0 = ops.dressed_transition_ghz(k0, k1)

    def transfer(x):
        return transfer_probability(ops, transition, carrier0 + 1e-3 * x[1], amp0 * x[0],
                                    duration)

    h = 1e-4
    for x in (np.array([1.0, 0.0]), np.array([0.9, 2.0])):
        value, grad = transfer_gradient(ops, transition, carrier0 + 1e-3 * x[1],
                                        amp0 * x[0], duration)
        assert value == transfer(x)
        central = [(transfer(x + h * e) - transfer(x - h * e)) / (2 * h) for e in np.eye(2)]
        np.testing.assert_allclose(grad * (amp0, 1e-3), central, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("config_name", ["default_config", "wp_config"])
def test_gradient_forward_pass_is_the_closed_propagation(request, config_name):
    # transfer_gradient takes its forward pass from _propagate_closed, so
    # its transfer is transfer_probability's to the bit at each shipped
    # calibrated pulse
    cfg = request.getfixturevalue(config_name)
    ops = cfg.system.build_operators()
    for transition in ("ge", "ef"):
        rep = run_rabi_calibration(ops, transition, cfg.protocol.pulse_duration_ns)
        args = (ops, transition, rep.carrier_ghz, rep.amplitude, rep.duration_ns,
                CALIBRATION_STEP_NS)
        assert transfer_gradient(*args)[0] == transfer_probability(*args)


def test_transfer_gradient_matches_the_frechet_derivative(small_ops):
    # one slice spanning the whole pulse: the divided differences must give
    # the Frechet derivative of the slice exponential, to rounding
    ops = small_ops
    carrier, amp, span = ops.dressed_transition_ghz(0, 1) + 3e-3, 4e-3, 40.0
    _, v = ops.dressed
    psi0, target = v[:, ops.dressed_index(0)], v[:, ops.dressed_index(1)]
    a = -1j * TWO_PI * span * (ops.h_static(carrier) + amp * ops.drive_op)
    value, grad = transfer_gradient(ops, "ge", carrier, amp, span, dt_ns=span)
    c = target @ expm(a) @ psi0
    assert abs(value - abs(c) ** 2) < 1e-12
    for got, dh in zip(grad, (ops.drive_op, -np.diag(ops.frame_gen_vec))):
        _, du = expm_frechet(a, -1j * TWO_PI * span * dh)
        want = 2.0 * (c.conj() * (target @ du @ psi0)).real
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_calibration_is_a_true_maximum(default_ops, calibrations):
    # the search runs at the calibration step, so the reported point is a
    # maximum of the transfer at that step
    for transition, rep in calibrations.items():
        def transfer(amp, carrier):
            return transfer_probability(default_ops, transition, carrier, amp,
                                        rep.duration_ns)
        peak = transfer(rep.amplitude, rep.carrier_ghz)
        for amp, carrier in ((rep.amplitude * (1 - 1e-4), rep.carrier_ghz),
                             (rep.amplitude * (1 + 1e-4), rep.carrier_ghz),
                             (rep.amplitude, rep.carrier_ghz - 1e-5),
                             (rep.amplitude, rep.carrier_ghz + 1e-5)):
            assert transfer(amp, carrier) <= peak


def test_calibration_is_a_joint_maximum(default_ops, calibrations):
    # one finite-difference Newton step on (relative amplitude, carrier in
    # MHz) from the reported point must find nothing left to gain: searching
    # one axis at a time stops short of the joint peak.  Probe and reported
    # point are both at the calibration step, where the search ran; the
    # report carries the transfer at the gate step, where the gates run
    h = 1e-4
    for transition, rep in calibrations.items():
        assert rep.transfer_probability == transfer_probability(
            default_ops, transition, rep.carrier_ghz, rep.amplitude, rep.duration_ns,
            dt_ns=GATE_STEP_NS)
        def transfer(x):
            return transfer_probability(default_ops, transition,
                                        rep.carrier_ghz + 1e-3 * x[1],
                                        rep.amplitude * (1 + x[0]), rep.duration_ns)
        f0 = transfer(np.zeros(2))
        fp = np.array([transfer(h * e) for e in np.eye(2)])
        fm = np.array([transfer(-h * e) for e in np.eye(2)])
        hess = np.diag(fp - 2 * f0 + fm) / h**2
        hess[0, 1] = hess[1, 0] = (transfer(np.full(2, h)) - fp[0] - fp[1] + f0) / h**2
        step = -np.linalg.solve(hess, (fp - fm) / (2 * h))
        assert transfer(step) - f0 < 1e-12


@pytest.mark.parametrize("transition", ["ge", "ef"])
@pytest.mark.parametrize("duration_ns", [40.0, 200.0])
def test_calibration_converges_across_durations(small_ops, transition, duration_ns):
    rep = run_rabi_calibration(small_ops, transition, duration_ns)
    assert rep.transfer_probability >= 0.999


def test_calibration_rejects_a_seed_at_a_transfer_minimum(small_ops, monkeypatch):
    # half the pi area doubles the seed amplitude onto a 2 pi pulse, where
    # transfer is at a minimum: Newton would climb down, so it must refuse
    area = pulses_mod._lifted_gauss_area
    monkeypatch.setattr(pulses_mod, "_lifted_gauss_area", lambda d: 0.5 * area(d))
    for transition in ("ge", "ef"):
        with pytest.raises(CalibrationError, match=f"pi_{transition}"):
            run_rabi_calibration(small_ops, transition, 56.0)


def test_calibration_rejects_a_peak_outside_the_domain(small_ops, monkeypatch):
    # a quadratic transfer whose peak sits 3 MHz above the dressed
    # transition: one Newton step lands on it, outside the +-2 MHz domain
    carrier0 = small_ops.dressed_transition_ghz(0, 1)
    amp0 = 0.25 / (abs(small_ops.nmat[0, 1]) * _lifted_gauss_area(56.0))

    def quadratic(ops, transition, carrier, amp, duration_ns, dt_ns=CALIBRATION_STEP_NS):
        da, dc = amp / amp0 - 1.0, 1e3 * (carrier - carrier0) - 3.0
        return 1.0 - da ** 2 - 0.01 * dc ** 2, np.array([-2.0 * da / amp0, -20.0 * dc])

    monkeypatch.setattr(pulses_mod, "transfer_gradient", quadratic)
    with pytest.raises(CalibrationError, match="outside"):
        run_rabi_calibration(small_ops, "ge", 56.0)


def test_closed_stepper_matches_slice_exponentials(default_ops, calibrations):
    # a calibrated pi_ge pulse plus a 4 ns guard: the envelope is symmetric on
    # the slice grid and the guard carries no drive, so amplitudes repeat
    ops, rep = default_ops, calibrations["ge"]
    env = rep.envelope()
    span = rep.duration_ns + 4.0
    n = int(np.ceil(span / GATE_STEP_NS))
    dt = span / n
    amps = [env((k + 0.5) * dt) for k in range(n)]
    assert len(np.unique(amps)) < n
    hs = [ops.h_static(rep.carrier_ghz) + a * ops.drive_op for a in amps]
    _, v = ops.dressed
    psi0 = v[:, ops.dressed_index(0)].astype(complex)

    psi, _ = _propagate_closed(psi0, _slice_eigenbases(ops, rep.carrier_ghz, env, span,
                                                       GATE_STEP_NS))
    ref = psi0
    for h in hs:
        ref = expm(-1j * TWO_PI * dt * h) @ ref
    assert np.max(np.abs(psi - ref)) < 1e-12

    distinct, idx, dt_u = slice_unitaries(_slice_eigenbases(ops, rep.carrier_ghz, env, span,
                                                            GATE_STEP_NS))
    assert len(distinct) == len(np.unique(amps))
    us = distinct[idx]
    assert dt_u == dt and us.shape == (n, ops.dim, ops.dim)
    stacked = psi0
    for u in us:
        stacked = u @ stacked
    assert np.max(np.abs(psi - stacked)) < 1e-13

    # eigh on the distinct amplitudes only gives the same bits as one eigh per slice
    per_slice = []
    for h in hs:
        w, vk = np.linalg.eigh(h)
        per_slice.append((vk * np.exp(-1j * TWO_PI * dt * w)[None, :]) @ vk.conj().T)
    assert np.array_equal(us, np.array(per_slice))


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
    traj = [rho0[None]]
    free = _gate_segment(_slice_eigenbases(ops, 0.0, lambda t: 0.0, 50.0, GATE_STEP_NS))
    for _ in range(8):  # 0 .. 400 ns in 50 ns spans
        traj.append(_propagate_open([small_liou], traj[-1], free))
    for (rho,) in traj:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
    # population flows out of e
    assert ops.subpopulations(traj[-1][0])[1] < 1.0


def test_split_step_step_insensitive(small_liou):
    # the splitting error is second order in the slice: 3.3e-6 between 0.25
    # and 0.125 ns on this drive, 1.5e-7 between the slices used here
    ops = small_liou.ops
    rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho0[0, 0] = 1.0
    drive = lifted_gaussian(0.005, 56.0)
    a, b = (_propagate_open([small_liou], rho0[None],
                            _gate_segment(_slice_eigenbases(ops, 4.98, drive, 56.0, dt)))
            for dt in (GATE_STEP_NS / 4, GATE_STEP_NS / 8))
    assert np.max(np.abs(a - b)) < 1e-6


def test_split_step_input_validation(small_liou):
    ops = small_liou.ops
    off = lambda t: 0.0
    with pytest.raises(ValueError, match="^span_ns and dt_ns must be positive$"):
        _slice_eigenbases(ops, 0.0, off, -0.5, GATE_STEP_NS)
    with pytest.raises(ValueError, match=f"^rho0 must be a stack of 1 {ops.dim}x{ops.dim} states$"):
        _propagate_open([small_liou], np.eye(3, dtype=complex)[None] / 3,
                        _gate_segment(_slice_eigenbases(ops, 0.0, off, 1.0, GATE_STEP_NS)))
    with pytest.raises(ValueError, match="^span_ns and dt_ns must be positive$"):
        _slice_eigenbases(ops, 0.0, off, 1.0, 0.0)


def test_split_step_rejects_invalid_end_state(small_liou):
    dim = small_liou.ops.dim
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0], rho0[1, 1] = 1.1, -0.1
    with pytest.raises(IntegrationError, match="^state 0 invariant violated after 1 ns: .*eigen"):
        _propagate_open([small_liou], rho0[None], _gate_segment(
            _slice_eigenbases(small_liou.ops, 0.0, lambda t: 0.0, 1.0, GATE_STEP_NS)))


def test_split_step_rejects_non_hermitian_input(small_liou):
    # the real packing Re rho + Im rho holds only a Hermitian rho: an
    # anti-Hermitian part would be dropped without a word
    dim = small_liou.ops.dim
    free = _gate_segment(_slice_eigenbases(small_liou.ops, 0.0, lambda t: 0.0, 1.0,
                                           GATE_STEP_NS))
    rho0 = np.eye(dim, dtype=complex) / dim
    rho0[0, 1] = 2e-12j
    with pytest.raises(ValueError, match=r"^rho0\[0\] is not Hermitian: "
                                         r"max \|rho0\[0\] - rho0\[0\]\+\| = 2\.000e-12 > 1e-12$"):
        _propagate_open([small_liou], rho0[None], free)
    rho0[0, 1] = 0.5e-12j
    _propagate_open([small_liou], rho0[None], free)


def _random_density_matrix(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _bath_lious(ops, baths=(50.0, 100.0, 200.0)):
    return [build_liouvillian(ops, DissipationSpec(gamma_eg_mhz=0.03, gamma_fe_mhz=0.06,
                                                   bath_t_mk=t_mk)) for t_mk in baths]


def test_stacked_propagation_matches_each_state_alone(small_ops):
    # three baths, so three different dissipators, through a driven run and
    # a free run of another slice length (two split-steps)
    lious = _bath_lious(small_ops)
    rng = np.random.default_rng(seed)
    rho0 = np.stack([_random_density_matrix(small_ops.dim, rng) for _ in lious])
    segments = (_gate_segment(_slice_eigenbases(small_ops, 4.98, lifted_gaussian(0.005, 50.1),
                                                50.1, GATE_STEP_NS)),
                _gate_segment(_slice_eigenbases(small_ops, 4.98, lambda t: 0.0, 4.0,
                                                GATE_STEP_NS)))
    assert segments[0].dt != segments[1].dt
    stacked = _propagate_open(lious, rho0, *segments)
    assert stacked.shape == rho0.shape
    for liou, start, got in zip(lious, rho0, stacked):
        (want,) = _propagate_open([liou], start[None], *segments)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_propagation_names_its_bad_member(small_ops):
    lious = _bath_lious(small_ops)
    dim = small_ops.dim
    free = _gate_segment(_slice_eigenbases(small_ops, 0.0, lambda t: 0.0, 1.0, GATE_STEP_NS))
    rho0 = np.stack([np.eye(dim, dtype=complex) / dim] * 3)
    with pytest.raises(ValueError, match=f"^rho0 must be a stack of 3 {dim}x{dim} states$"):
        _propagate_open(lious, rho0[:2], free)
    rho0[1, 0, 1] = 2e-12j
    with pytest.raises(ValueError, match=r"^rho0\[1\] is not Hermitian: "
                                         r"max \|rho0\[1\] - rho0\[1\]\+\| = 2\.000e-12 > 1e-12$"):
        _propagate_open(lious, rho0, free)
    rho0[1, 0, 1] = 0.0
    rho0[2] = 0.0
    rho0[2, 0, 0], rho0[2, 1, 1] = 1.1, -0.1
    with pytest.raises(IntegrationError,
                       match="^state 2 invariant violated after 1 ns: .*eigen"):
        _propagate_open(lious, rho0, free)


@pytest.mark.parametrize("config_name", ["default_config", "wp_config"])
@pytest.mark.parametrize("duration", ["shipped", 50.1])
def test_real_eigenbasis_gates_match_complex_strang_chain(request, config_name, duration):
    # each gate against the complex Strang chain over dense slice unitaries,
    # from a full-rank state with complex coherences everywhere; the 50.1-ns
    # pulse puts its guard off the step grid, so the gate takes two runs
    cfg = request.getfixturevalue(config_name)
    ops = cfg.system.build_operators()
    liou = build_liouvillian(ops, cfg.dissipation)
    gap = cfg.protocol.gap_ns
    duration = cfg.protocol.pulse_duration_ns if duration == "shipped" else duration
    rho0 = _random_density_matrix(ops.dim, np.random.default_rng(seed))
    for transition in ("ge", "ef"):
        pulse = run_rabi_calibration(ops, transition, duration)
        guard = _slice_eigenbases(ops, pulse.carrier_ghz, lambda t: 0.0, gap, GATE_STEP_NS)
        ref = propagate_open_complex(liou, rho0, pulse.slices.basis, guard)
        (rho,) = _propagate_open([liou], rho0[None], *_gate_slices(pulse, liou, gap))
        assert np.max(np.abs(rho - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_split_step_matches_reference_integration(small_ops, small_liou):
    # one calibrated pi_ge gate plus guard from the steady state, against an
    # adaptive integration of the full generator at tight tolerances
    pulse = run_rabi_calibration(small_ops, "ge", 56.0)
    env = pulse.envelope()
    span = pulse.duration_ns + 4.0
    rho0 = steady_state(small_liou).astype(complex)
    l_static = static_super(small_liou, pulse.carrier_ghz)
    l_drive = unit_superoperator(small_ops.drive_op)
    sol = solve_ivp(lambda t, v: l_static @ v + env(t) * (l_drive @ v),
                    (0.0, span), rho0.reshape(-1), rtol=1e-10, atol=1e-12)
    assert sol.success
    ref = sol.y[:, -1].reshape(rho0.shape)
    (rho,) = _propagate_open([small_liou], rho0[None], _gate_segment(
        _slice_eigenbases(small_ops, pulse.carrier_ghz, env, span, GATE_STEP_NS)))
    dev = np.max(np.abs(small_ops.protocol_populations(rho).as_array()
                        - small_ops.protocol_populations(ref).as_array()))
    assert dev < 1e-8
    err = np.max(np.abs(rho - ref))
    assert err < 2e-5
    # second-order splitting: halving the slice cuts the error about 4x
    (half,) = _propagate_open([small_liou], rho0[None], _gate_segment(
        _slice_eigenbases(small_ops, pulse.carrier_ghz, env, span, GATE_STEP_NS / 2)))
    assert np.max(np.abs(half - ref)) < err / 3


@pytest.fixture(scope="module")
def gates_50mk(default_config, default_ops, calibrations):
    """Default device at 50 mK as a batch of one point: its Liouvillian in a
    list, its steady state as a stack of one, and the calibrated pulses."""
    spec = dataclasses.replace(default_config.dissipation, bath_t_mk=50.0)
    liou = build_liouvillian(default_ops, spec)
    return [liou], steady_state(liou)[None], calibrations, default_config.protocol.gap_ns


def test_gates_prepare_density_matrices_at_50mk(gates_50mk):
    # every split step is completely positive, so no state may dip below -1e-8
    lious, rho_ss, pulses, gap = gates_50mk
    prepared = prepare_sequences(rho_ss, all_sequences(), lious, pulses, gap_ns=gap)
    assert tuple(prepared) == SEQUENCE_LABELS
    for (rho,), _, _ in prepared.values():
        validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-8, eig_tol=-1e-8)


def test_prefix_walk_matches_independent_sequences(gates_50mk, monkeypatch):
    lious, rho_ss, pulses, gap = gates_50mk
    independent = {}
    for seq in all_sequences():
        state = (rho_ss.astype(complex), 0.0, 0.0)
        for gate in seq.gates:
            state = _apply_gate(state, pulses[gate], lious, gap,
                                _gate_slices(pulses[gate], lious[0], gap))
        independent[seq.label] = state

    calls = []
    def counted(*args):
        calls.append(args[1])
        return _apply_gate(*args)
    monkeypatch.setattr(pulses_mod, "_apply_gate", counted)
    walked = prepare_sequences(rho_ss, all_sequences(), lious, pulses, gap_ns=gap)
    assert len(calls) == 5  # x2 extends x1, y1 and y2 extend y0
    for label, (rho, elapsed_ns, frame_ghz) in walked.items():
        want_rho, want_elapsed, want_frame = independent[label]
        assert np.array_equal(rho, want_rho)
        assert elapsed_ns == want_elapsed
        assert frame_ghz == want_frame


def test_each_pulse_is_diagonalized_once_per_calibration(default_config, default_ops,
                                                       monkeypatch):
    # one gate-step batch per pulse, in its calibration; the gates of two
    # bath points that share the calibrations only diagonalize the free
    # evolution of their guards, one H_static per pulse and point
    calls = []

    def counted(ops, frame_ghz, envelope_fn, span_ns, dt_ns, _inner=pulses_mod._slice_eigenbases):
        calls.append((envelope_fn(0.5 * span_ns) != 0.0, span_ns, dt_ns))
        return _inner(ops, frame_ghz, envelope_fn, span_ns, dt_ns)

    monkeypatch.setattr(pulses_mod, "_slice_eigenbases", counted)
    duration, gap = default_config.protocol.pulse_duration_ns, default_config.protocol.gap_ns
    pulses = {t: run_rabi_calibration(default_ops, t, duration) for t in ("ge", "ef")}
    assert sorted(calls) == sorted([(True, duration, CALIBRATION_STEP_NS)] * 10
                                   + [(True, duration, GATE_STEP_NS)] * 2)
    calls.clear()
    for t_mk in (50.0, 200.0):
        liou = build_liouvillian(default_ops, dataclasses.replace(default_config.dissipation,
                                                                  bath_t_mk=t_mk))
        prepare_sequences(steady_state(liou)[None], all_sequences(), [liou], pulses, gap_ns=gap)
    assert calls == [(False, gap, GATE_STEP_NS)] * 4


@pytest.mark.parametrize("config_name", ["default_config", "wp_config"])
def test_carried_gate_slices_are_the_whole_span_cut_at_once(request, config_name):
    # the shipped pulse and guard are multiples of the gate step, so the
    # pulse's carried slices followed by the guard's are, to the bit, the
    # slices of the whole gate span cut in one batch
    cfg = request.getfixturevalue(config_name)
    ops = cfg.system.build_operators()
    liou = build_liouvillian(ops, cfg.dissipation)
    gap = cfg.protocol.gap_ns
    for transition in ("ge", "ef"):
        pulse = run_rabi_calibration(ops, transition, cfg.protocol.pulse_duration_ns)
        segments = _gate_slices(pulse, liou, gap)
        ref = _gate_segment(_slice_eigenbases(ops, pulse.carrier_ghz, pulse.envelope(),
                                              pulse.duration_ns + gap, GATE_STEP_NS))
        assert [seg.dt for seg in segments] == [ref.dt, ref.dt]
        for part in ("v", "cos", "sin"):
            split = np.concatenate([getattr(seg, part)[seg.idx] for seg in segments])
            assert np.array_equal(split, getattr(ref, part)[ref.idx])


def test_gates_split_a_span_off_the_step_grid(small_ops, small_liou):
    # 50.1 ns is no multiple of the step: the pulse keeps its own grid and
    # the guard gets ceil(gap / step) slices of its own
    pulse = run_rabi_calibration(small_ops, "ge", 50.1)
    segments = _gate_slices(pulse, small_liou, 4.0)
    assert [len(seg.idx) for seg in segments] == [201, 16]
    assert [seg.dt for seg in segments] == [50.1 / 201, 0.25]
    (alone,) = _gate_slices(pulse, small_liou, 0.0)
    assert alone.v is pulse.slices.basis[2] and alone.idx is pulse.slices.basis[3]
    assert all(np.array_equal(a, b) for a, b in zip(alone, segments[0]))


def test_gates_reject_slices_cut_at_another_step(gates_50mk, monkeypatch):
    lious, rho_ss, pulses, gap = gates_50mk
    monkeypatch.setattr(pulses_mod, "GATE_STEP_NS", GATE_STEP_NS / 2)
    with pytest.raises(ValueError, match=r"^pi_ge carries no slices of its pulse \(.*, 56 ns\) "
                                         r"at the gate step 0.125 ns; "):
        prepare_sequences(rho_ss, all_sequences(), lious, pulses, gap_ns=gap)


@pytest.mark.parametrize("change", ["amplitude", "carrier_ghz", "duration_ns", "slices"])
def test_gates_reject_slices_of_another_pulse(gates_50mk, change):
    # a report whose pulse no longer matches its carried slices, or that
    # was built from its five numbers alone, plays no gate: it would
    # otherwise play the old pulse under the new numbers
    lious, rho_ss, pulses, gap = gates_50mk
    rep = pulses["ef"]
    other = dataclasses.replace(
        rep, **{change: None if change == "slices" else 1.01 * getattr(rep, change)})
    with pytest.raises(ValueError, match="^pi_ef carries no slices of its pulse "):
        prepare_sequences(rho_ss, all_sequences(), lious, {**pulses, "ef": other}, gap_ns=gap)


def test_calibration_report_is_its_five_numbers(calibrations):
    # the carried slices take no part in equality, hashing, repr or as_dict
    rep = calibrations["ge"]
    other = dataclasses.replace(rep, slices=None)
    assert other == rep and hash(other) == hash(rep)
    assert pulses_mod.CalibrationReport(*rep.as_dict().values()) == rep
    assert dataclasses.replace(rep, amplitude=2.0 * rep.amplitude) != rep
    assert repr(other) == repr(rep) == (
        f"CalibrationReport(transition='ge', amplitude={rep.amplitude!r}, "
        f"duration_ns={rep.duration_ns!r}, transfer_probability={rep.transfer_probability!r}, "
        f"carrier_ghz={rep.carrier_ghz!r})")
    assert rep.as_dict() == {"transition": "ge", "amplitude": rep.amplitude,
                             "duration_ns": rep.duration_ns,
                             "transfer_probability": rep.transfer_probability,
                             "carrier_ghz": rep.carrier_ghz}
