import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritherm.constants import GHZ_TO_MK
from tritherm.hilbert import (
    LevelEnergies,
    Populations,
    ResonatorSpec,
    ResourceError,
    TransmonSpec,
    TruncationError,
    build_composite_operators,
    thermal_populations,
    transmon_spectrum,
    validate_density_matrix,
)

seed = 20260312

# charge-basis diagonalization of the default device, frozen from an
# independent implementation (direct scipy eigh on the same Hamiltonian)
DEFAULT = TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013)
F_GE_DEFAULT = 4.980685841031061
F_GF_DEFAULT = 9.507519419812077


def test_default_device_frequencies():
    energies, _, _ = transmon_spectrum(DEFAULT)
    assert energies[0] == 0.0
    assert abs(energies[1] - F_GE_DEFAULT) < 1e-9
    assert abs(energies[2] - F_GF_DEFAULT) < 1e-9
    levels = LevelEnergies(energies[0], energies[1], energies[2])
    assert abs(levels.anharmonicity_ghz - 0.45385226225004516) < 1e-9


def test_anchor_device_frequencies():
    # ec/ej chosen so the protocol levels sit exactly on the anchor pair
    spec = TransmonSpec(ec_ghz=0.3031160654353634, ej_max_ghz=20.54235101513583)
    energies, _, _ = transmon_spectrum(spec)
    assert abs(energies[1] - 6.74) < 1e-8
    assert abs(energies[2] - 13.14) < 1e-8


def test_zero_josephson_energy_gives_charging_parabola():
    # at half a flux quantum the junction term vanishes and the spectrum is
    # 4 Ec n^2 over integer charge states
    spec = TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013, flux_quantum_fraction=0.5)
    assert spec.ej_ghz < 1e-12
    energies, _, _ = transmon_spectrum(spec)
    ec = 0.36
    np.testing.assert_allclose(energies, [0.0, 4 * ec, 4 * ec, 16 * ec], atol=1e-9)


def test_flux_scales_josephson_energy():
    spec = TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013, flux_quantum_fraction=0.3)
    assert abs(spec.ej_ghz - 10.013 * abs(np.cos(0.3 * np.pi))) < 1e-12


def test_flux_detunes_downward():
    f0 = transmon_spectrum(DEFAULT)[0][1]
    spec = TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013, flux_quantum_fraction=0.2)
    assert transmon_spectrum(spec)[0][1] < f0


def test_gauge_fix_nearest_neighbour_elements():
    _, _, nmat = transmon_spectrum(DEFAULT)
    assert np.max(np.abs(nmat - nmat.T)) < 1e-12
    for k in range(nmat.shape[0] - 1):
        assert nmat[k, k + 1] >= 0.0
    # parity: diagonal vanishes at ng = 0, same-parity couplings are tiny
    assert abs(nmat[0, 0]) < 1e-10
    assert abs(nmat[0, 2]) < abs(nmat[0, 1])


def test_truncation_guard_trips_on_narrow_charge_basis():
    spec = TransmonSpec(ec_ghz=0.36, ej_max_ghz=50.0, n_charge_states=8)
    with pytest.raises(TruncationError):
        transmon_spectrum(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        TransmonSpec(ec_ghz=-0.1, ej_max_ghz=10.0)
    with pytest.raises(ValueError):
        TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.0, n_transmon_levels=2)
    with pytest.raises(ValueError):
        TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.0, n_charge_states=5)
    with pytest.raises(ValueError):
        ResonatorSpec(fr_ghz=-7.75, coupling_ghz=0.018)
    with pytest.raises(ValueError):
        ResonatorSpec(fr_ghz=7.75, coupling_ghz=0.018, n_fock=1)


def test_level_energies_validation():
    with pytest.raises(ValueError):
        LevelEnergies(0.0, 5.0, 4.0)
    with pytest.raises(ValueError):
        # ascending but harmonic-or-stiffer spacing: f_ef >= f_ge
        LevelEnergies(0.0, 5.0, 10.5)
    lv = LevelEnergies.from_frequencies(5.7, 11.1)
    assert lv.f_ge_ghz == 5.7
    assert abs(lv.f_ef_ghz - 5.4) < 1e-12


def test_populations_validation():
    with pytest.raises(ValueError):
        Populations(0.5, 0.6, 0.2)
    with pytest.raises(ValueError):
        Populations(-0.1, 0.6, 0.2)
    with pytest.raises(ValueError):
        Populations(-2e-10, 0.6, 0.4 + 2e-10)


def test_composite_operator_algebra():
    ops = build_composite_operators(DEFAULT, ResonatorSpec(7.75, 0.018, n_fock=6))
    assert ops.dim == 4 * 7
    comm = ops.a @ ops.adag - ops.adag @ ops.a
    # canonical commutator holds away from the truncation edge
    eye = np.eye(ops.dim)
    bulk = ops.n_phot_vec < 6
    np.testing.assert_allclose(comm[np.ix_(bulk, bulk)], eye[np.ix_(bulk, bulk)],
                               atol=1e-12)


def test_composite_dimension_guard():
    with pytest.raises(ResourceError):
        build_composite_operators(
            TransmonSpec(ec_ghz=0.36, ej_max_ghz=10.013, n_transmon_levels=8,
                         n_charge_states=30),
            ResonatorSpec(7.75, 0.018, n_fock=40),
        )


def test_dressed_indices_are_a_bijection():
    ops = build_composite_operators(DEFAULT, ResonatorSpec(7.75, 0.018, n_fock=6))
    idx = [ops.dressed_index(k, n) for k in range(4) for n in range(7)]
    assert sorted(idx) == list(range(28))


def test_dressed_transition_close_to_bare():
    ops = build_composite_operators(DEFAULT, ResonatorSpec(7.75, 0.018, n_fock=6))
    f_ge = ops.dressed_transition_ghz(0, 1)
    # Lamb/ac-Stark shift of order g^2/Delta ~ 0.1 MHz at this detuning
    assert abs(f_ge - F_GE_DEFAULT) < 5e-4
    assert f_ge != F_GE_DEFAULT


def test_frame_independence_of_dressed_states():
    # H commutes with the frame generator, so a frame change shifts each
    # dressed energy by frame * excitation and leaves the vectors fixed
    ops = build_composite_operators(DEFAULT, ResonatorSpec(7.75, 0.018, n_fock=6))
    w0, v0 = ops.dressed
    wf, vf = np.linalg.eigh(ops.h_static(4.98))
    # eigh resorts under the frame shift; match columns by overlap
    for level, exc in ((0, 0.0), (1, 1.0)):
        i = ops.dressed_index(level)
        overlaps = np.abs(vf.T @ v0[:, i])
        j = int(np.argmax(overlaps))
        assert overlaps[j] > 1.0 - 1e-9
        assert abs((w0[i] - wf[j]) - 4.98 * exc) < 1e-9


def test_thermal_populations_ordering_and_ratio():
    lv = LevelEnergies.from_frequencies(5.7, 11.1)
    p = thermal_populations(lv, 200.0)
    assert p.p_g > p.p_e > p.p_f
    # Boltzmann ratio check against the explicit exponent
    assert abs(p.p_e / p.p_g - np.exp(-5.7 * GHZ_TO_MK / 200.0)) < 1e-12
    assert abs(p.p_f / p.p_e - np.exp(-5.4 * GHZ_TO_MK / 200.0)) < 1e-12
    with pytest.raises(ValueError):
        thermal_populations(lv, 0.0)


def test_density_matrix_validation():
    good = np.diag([0.6, 0.3, 0.1]).astype(complex)
    validate_density_matrix(good)
    bad = good.copy()
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(bad)
    with pytest.raises(ValueError):
        validate_density_matrix(2 * good)
    neg = np.diag([1.1, 0.1, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(neg)


def test_protocol_populations_renormalize():
    ops = build_composite_operators(DEFAULT, ResonatorSpec(7.75, 0.018, n_fock=2))
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    # put weight on g0, e0, f0 and a little on the leakage level
    for k, w in enumerate([0.55, 0.25, 0.15, 0.05]):
        rho[k * 3, k * 3] = w
    p = ops.protocol_populations(rho)
    np.testing.assert_allclose(p.as_array(),
                               np.array([0.55, 0.25, 0.15]) / 0.95, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    ec=st.floats(0.2, 0.5),
    ratio=st.floats(25.0, 80.0),
)
def test_transmon_regime_spectrum_properties(ec, ratio):
    spec = TransmonSpec(ec_ghz=ec, ej_max_ghz=ec * ratio, n_charge_states=40)
    energies, _, nmat = transmon_spectrum(spec)
    assert np.all(np.diff(energies) > 0)
    lv = LevelEnergies(energies[0], energies[1], energies[2])
    assert lv.anharmonicity_ghz > 0
    assert np.max(np.abs(nmat - nmat.T)) < 1e-10
    assert not np.iscomplexobj(nmat)


@settings(max_examples=20, deadline=None)
@given(t_mk=st.floats(10.0, 500.0))
def test_thermal_populations_monotone_in_temperature(t_mk):
    lv = LevelEnergies.from_frequencies(4.98, 9.51)
    p_lo = thermal_populations(lv, t_mk)
    p_hi = thermal_populations(lv, t_mk * 1.5)
    assert p_hi.p_g < p_lo.p_g
    assert p_hi.p_f > p_lo.p_f
