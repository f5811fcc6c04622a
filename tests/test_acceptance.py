"""End-to-end acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line through the ``criterion`` recorder;
the lines are printed together after the run summary.  Tolerances are the
contract, not aspirations: if physics or numerics cannot meet one, the test
stays red and the analysis goes in the engineering notes.
"""

import dataclasses

import numpy as np

from conftest import make_synthetic_responses
from oracles import apply_sequence_ideal, coefficient_from_populations
from tritherm.errorlab import repeated_measurement_stats, temperature_discrepancy
from tritherm.hilbert import Populations, thermal_populations
from tritherm.lindblad import (
    DissipationSpec,
    build_liouvillian,
    steady_state,
    thermal_occupations,
)
from tritherm.pipeline import estimate
from tritherm.pulses import all_sequences, compile_sequence, prepare_sequences
from tritherm.readout import IQTrace
from tritherm.thermometry import (
    COEFFICIENTS,
    SequenceResponses,
    SlopeEstimate,
    deming_slope,
    estimate_temperature,
    invert_temperature,
)

LABELS = ("x0", "x1", "x2", "y0", "y1", "y2")


def dressed_populations(ops, rho):
    """Three-level populations measured against the dressed eigenbasis.

    Gates are calibrated between dressed states, so the coupling-induced
    (g/Delta)^2 admixture that bare projectors pick up cancels here.
    """
    _, v = ops.dressed(0.0)
    p = np.zeros(3)
    for k in range(3):
        for n in range(ops.rspec.n_states):
            vec = v[:, ops.dressed_index(k, n)]
            p[k] += np.real(vec.conj() @ rho @ vec)
    return Populations(*(p / p.sum()))


def test_criterion_1_round_trip_recovery(criterion, temperature_runs):
    with criterion(1, "bath recovery at 50/100/150/200 mK, noiseless and noisy"):
        for t_set, result in temperature_runs.items():
            clean = estimate_temperature(result.noiseless_responses, result.levels)
            for coef in COEFFICIENTS:
                err = clean.temperature(coef).t_mk - t_set
                assert abs(err) < 2.0, f"noiseless {coef} at {t_set}: {err:+.2f} mK"

            spread = repeated_measurement_stats(
                result.noiseless_responses, result.levels, n_runs=50,
                noise_sigma=result.config.readout.noise_sigma, seed=int(t_set))
            noisy = estimate(result.responses, result.levels, result.config.protocol,
                             result.config.seed)
            for coef in COEFFICIENTS:
                err = noisy.temperature(coef).t_mk - t_set
                band = 3.0 * spread.std(coef)
                assert abs(err) < band, (
                    f"noisy {coef} at {t_set}: {err:+.1f} mK vs 3 sigma {band:.1f}")

            assert sum(result.timings_s.values()) < 300.0


def test_criterion_2_anchor_inversions(criterion):
    with criterion(2, "anchor slope inversions (A = 0.9936, B = 0.1320)"):
        est_a = invert_temperature(
            SlopeEstimate("A", None, 0.9936, (0.9936, 0.9936), 0.0), (5.7, 11.1))
        assert abs(est_a.t_mk - 54.0) < 1.0, f"T_A = {est_a.t_mk:.2f}"
        est_b = invert_temperature(
            SlopeEstimate("B", None, 0.1320, (0.1320, 0.1320), 0.0), (6.74, 13.14))
        assert abs(est_b.t_mk - 161.0) < 2.0, f"T_B = {est_b.t_mk:.2f}"


def test_criterion_3_coefficient_algebra(criterion):
    with criterion(3, "C = A*B on 10^4 triples; nine pair slopes to 1e-10"):
        rng = np.random.default_rng(31)
        count = 0
        while count < 10_000:
            p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
            if p[0] - p[1] < 1e-6 or p[1] - p[2] < 1e-6:
                continue
            a = (p[0] - p[1]) / (p[0] - p[2])
            b = (p[1] - p[2]) / (p[0] - p[1])
            c = (p[1] - p[2]) / (p[0] - p[2])
            assert abs(c - a * b) < 1e-12
            count += 1

        responses, levels = make_synthetic_responses(t_mk=140.0)
        pops = thermal_populations(levels, 140.0)
        from tritherm.thermometry import difference_pairs

        slopes = {coef: [] for coef in COEFFICIENTS}
        for xs, ys, coef, _ in difference_pairs(responses):
            pts_x = np.concatenate([xs.real, xs.imag])
            pts_y = np.concatenate([ys.real, ys.imag])
            slope, _ = deming_slope(pts_x, pts_y)
            slopes[coef].append(slope)
        for coef in COEFFICIENTS:
            vals = np.array(slopes[coef])
            want = coefficient_from_populations(pops, coef)
            assert np.max(vals) - np.min(vals) < 1e-10
            assert np.max(np.abs(vals - want)) < 1e-10


def test_criterion_4_thermal_steady_state(criterion, default_config):
    with criterion(4, "weak-coupling Boltzmann to 1e-6; detailed balance to 1e-12"):
        tspec = default_config.system.transmon
        rspec = dataclasses.replace(default_config.system.resonator,
                                    coupling_ghz=2e-4, q_loaded=3100.0)
        ops = dataclasses.replace(default_config.system, resonator=rspec)\
            .build_operators()
        for t_mk in (50.0, 100.0, 200.0):
            spec = DissipationSpec(0.1, 0.2, t_mk)
            liou = build_liouvillian(ops, spec)
            rho = steady_state(liou)
            got = ops.protocol_populations(rho).as_array()
            want = thermal_populations(ops.levels(), t_mk).as_array()
            dev = np.max(np.abs(got - want))
            assert dev < 1e-6, f"{t_mk} mK: max deviation {dev:.2e}"

            occ = thermal_occupations(ops.levels(), rspec.fr_ghz, t_mk)
            for n, f in ((occ.n_eg, ops.levels().f_ge_ghz),
                         (occ.n_fe, ops.levels().f_ef_ghz),
                         (occ.n_r, rspec.fr_ghz)):
                from tritherm.constants import GHZ_TO_MK

                lhs = n + 1.0
                rhs = n * np.exp(f * GHZ_TO_MK / t_mk)
                assert abs(lhs - rhs) < 1e-12 * lhs


def test_criterion_5_sequence_permutations(criterion, run_150, default_config,
                                           calibrations):
    with criterion(5, "sequence outcomes: 0.01 dissipative, 1e-6 closed, "
                      "pi transfer >= 0.999"):
        steady = run_150.steady_populations
        for lab in LABELS:
            ideal = apply_sequence_ideal(steady, compile_sequence(lab))
            got = run_150.prepared_populations[lab].as_array()
            dev = np.max(np.abs(got - ideal.as_array()))
            assert dev < 0.01, f"dissipative {lab}: {dev:.4f}"

        for rep in calibrations.values():
            assert rep.transfer_probability >= 0.999

        # dissipation off: huge Q and zero rates keep the generator purely
        # Hamiltonian; populations measured in the dressed basis
        rspec = dataclasses.replace(default_config.system.resonator,
                                    q_loaded=1e12)
        ops = dataclasses.replace(default_config.system, resonator=rspec)\
            .build_operators()
        liou = build_liouvillian(ops, DissipationSpec(0.0, 0.0, 150.0))
        _, v = ops.dressed(0.0)
        p0 = np.array([0.6, 0.3, 0.1])
        rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
        for k, w in enumerate(p0):
            vec = v[:, ops.dressed_index(k)]
            rho0 += w * np.outer(vec, vec.conj())
        prepared = prepare_sequences(rho0, all_sequences(), liou, calibrations,
                                     gap_ns=default_config.protocol.gap_ns)
        for seq in all_sequences():
            rho, _, _ = prepared[seq.label]
            got = dressed_populations(ops, rho).as_array()
            want = p0[list(seq.expected_permutation)]
            dev = np.max(np.abs(got - want))
            assert dev < 1e-6, f"closed {seq.label}: {dev:.2e}"


def test_criterion_6_estimator_bias_bands(criterion, bias_report):
    with criterion(6, "OLS attenuation below truth; dT_A = +5 +- 3 mK, "
                      "|dT_B|, |dT_C| <= 2.5 mK"):
        lam = 0.8834
        idx = int(np.argmin(np.abs(bias_report.lambda_grid - lam)))
        assert bias_report.mean_fit[idx] < bias_report.lambda_grid[idx]
        assert bias_report.ci_high[idx] < bias_report.lambda_grid[idx]

        curves = temperature_discrepancy(bias_report, (6.74, 13.14))
        dt_a = curves.at("A", 165.0)
        assert 2.0 <= dt_a <= 8.0, f"dT_A(165) = {dt_a:+.2f} mK"
        assert np.nanmax(np.abs(curves.dt_b_mk)) <= 2.5
        assert np.nanmax(np.abs(curves.dt_c_mk)) <= 2.5


def test_criterion_7_noise_propagation_ordering(criterion, wp_run):
    with criterion(7, "100 noisy runs: std(T_A) > std(T_B), both 5-25 mK"):
        stats = repeated_measurement_stats(
            wp_run.noiseless_responses, wp_run.levels, n_runs=100,
            noise_sigma=wp_run.config.readout.noise_sigma, seed=0)
        sa, sb = stats.std("A"), stats.std("B")
        assert sa > sb, f"std_A {sa:.1f} <= std_B {sb:.1f}"
        assert 5.0 < sa < 25.0, f"std_A = {sa:.1f} mK"
        assert 5.0 < sb < 25.0, f"std_B = {sb:.1f} mK"


def test_criterion_8_invariances(criterion, run_150, dephasing_run):
    with criterion(8, "dephasing and response-plane rotation shift T by < 1 mK"):
        base = estimate_temperature(run_150.noiseless_responses, run_150.levels)
        deph = estimate_temperature(dephasing_run.noiseless_responses,
                                    dephasing_run.levels)
        for coef in COEFFICIENTS:
            shift = deph.temperature(coef).t_mk - base.temperature(coef).t_mk
            assert abs(shift) < 1.0, f"dephasing moves T_{coef} by {shift:+.3f} mK"

        # a global IQ-plane rotation models an arbitrary (but shared) choice
        # of heterodyne phase reference
        ph = np.exp(0.7j)
        rotated = {}
        for lab, tr in run_150.noiseless_responses.as_dict().items():
            z = tr.complex_vals() * ph
            rotated[lab] = IQTrace(tr.t_ns, z.real.copy(), z.imag.copy(), lab)
        rot = estimate_temperature(SequenceResponses.from_dict(rotated),
                                   run_150.levels)
        for coef in COEFFICIENTS:
            shift = rot.temperature(coef).t_mk - base.temperature(coef).t_mk
            assert abs(shift) < 1.0, f"rotation moves T_{coef} by {shift:+.3f} mK"
