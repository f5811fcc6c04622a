import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import CONFIG_DIR
from tritherm.config import (
    ConfigError,
    ProtocolConfig,
    RunConfig,
    config_from_dict,
    load_config,
    rng_stream,
    stream_seed,
    with_changes,
)
from tritherm.hilbert import ResonatorSpec, TransmonSpec
from tritherm.lindblad import DissipationSpec
from tritherm.readout import ReadoutConfig

seed = 20260312


def test_load_default_config(default_config):
    cfg = default_config
    assert cfg.system.transmon.ec_ghz == 0.36
    assert cfg.system.resonator.fr_ghz == 7.75
    assert cfg.dissipation.bath_t_mk == 150.0
    assert cfg.readout.window_start_ns == 390.0
    assert cfg.protocol.pulse_duration_ns == 56.0
    assert cfg.seed == 0


def test_load_working_point_config(wp_config):
    # working point pins the anchor transition pair
    ops = wp_config.system.build_operators()
    assert abs(ops.energies[1] - 6.74) < 1e-6
    assert abs(ops.energies[2] - 13.14) < 1e-6


def test_round_trip_through_dict(default_config):
    back = config_from_dict(json.loads(json.dumps(default_config.as_dict())))
    assert back == default_config


def test_missing_file_message(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "nope.json")
    assert "nope.json" in str(err.value)


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "invalid JSON" in str(err.value)


def test_unknown_key_reports_dotted_path(default_config):
    data = default_config.as_dict()
    data["system"]["transmon"]["ej_ghz"] = 10.0
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert "system.transmon.ej_ghz" in str(err.value)


def test_unknown_top_level_key(default_config):
    data = default_config.as_dict()
    data["bath"] = {}
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert "bath" in str(err.value)


def test_missing_required_blocks(default_config):
    data = default_config.as_dict()
    del data["dissipation"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert "dissipation" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 3})


def test_field_validation_wrapped_in_config_error(default_config):
    data = default_config.as_dict()
    data["dissipation"]["bath_t_mk"] = -5.0
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert "dissipation" in str(err.value)
    data = default_config.as_dict()
    data["seed"] = "abc"
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(pulse_duration_ns=30.0)
    with pytest.raises(ValueError):
        ProtocolConfig(gap_ns=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n_bootstrap=-1)


VALID_BLOCKS = {DissipationSpec: DissipationSpec(0.03, 0.06, 150.0),
                ReadoutConfig: ReadoutConfig(), ProtocolConfig: ProtocolConfig(),
                TransmonSpec: TransmonSpec(0.36, 10.013), ResonatorSpec: ResonatorSpec(7.75, 0.018)}
WINDOW = "need 0 <= window_start < window_end <= probe_duration"


NAN_CASES = [
    (DissipationSpec, "gamma_eg_mhz", "rates must be non-negative"),
    (DissipationSpec, "gamma_fe_mhz", "rates must be non-negative"),
    (DissipationSpec, "gamma_phi_mhz", "rates must be non-negative"),
    (DissipationSpec, "bath_t_mk", "bath_t_mk must be positive"),
    (ReadoutConfig, "probe_duration_ns", WINDOW),
    (ReadoutConfig, "window_start_ns", WINDOW),
    (ReadoutConfig, "window_end_ns", WINDOW),
    (ReadoutConfig, "if_mhz", "if_mhz must be positive"),
    (ReadoutConfig, "sample_dt_ns", "sample_dt_ns must be positive"),
    (ReadoutConfig, "noise_sigma", "noise_sigma must be non-negative"),
    (ReadoutConfig, "n_averages", "n_averages must be at least 1"),
    (ReadoutConfig, "probe_amplitude_ghz", "probe_amplitude_ghz must be non-negative"),
    (ProtocolConfig, "pulse_duration_ns", "pulse_duration_ns must lie in [40, 200]"),
    (ProtocolConfig, "gap_ns", "gap_ns must be non-negative"),
    (ProtocolConfig, "n_bootstrap", "n_bootstrap must be non-negative"),
    (TransmonSpec, "ec_ghz", "ec_ghz and ej_max_ghz must be positive"),
    (TransmonSpec, "ej_max_ghz", "ec_ghz and ej_max_ghz must be positive"),
    (TransmonSpec, "n_transmon_levels", "need at least the three protocol levels"),
    (TransmonSpec, "n_charge_states", "n_charge_states must be >= 2*n_transmon_levels"),
    (ResonatorSpec, "fr_ghz", "fr_ghz and q_loaded must be positive"),
    (ResonatorSpec, "q_loaded", "fr_ghz and q_loaded must be positive"),
    (ResonatorSpec, "n_fock", "need at least photon states 0..2"),
    (ResonatorSpec, "coupling_ghz", "coupling_ghz must be non-negative"),
    # no range to check: the loader's finite-number rule names them
    (TransmonSpec, "flux_quantum_fraction",
     "flux_quantum_fraction must be a finite number, got nan"),
    (TransmonSpec, "gate_charge", "gate_charge must be a finite number, got nan"),
]
# inf passes every range check but these, and fails the finite-number rule
INF_RANGE_MESSAGES = {
    "pulse_duration_ns": "pulse_duration_ns must lie in [40, 200]",
    "window_start_ns": WINDOW, "window_end_ns": WINDOW,
    "n_transmon_levels": "n_charge_states must be >= 2*n_transmon_levels",
}
FIELD_CASES = [(block, field, float("nan"), message) for block, field, message in NAN_CASES] + [
    (block, field, float("inf"),
     INF_RANGE_MESSAGES.get(field, f"{field} must be a finite number, got inf"))
    for block, field, _ in NAN_CASES]


@pytest.mark.parametrize("block, field, value, message", FIELD_CASES, ids=[
    f"{block.__name__}.{field}" + ("-inf" if value > 0 else "")
    for block, field, value, _ in FIELD_CASES])
def test_a_nan_field_fails_its_range_check_at_construction(block, field, value, message):
    # a NaN or inf built from Python was once accepted and failed later
    # under another name (a NaN rate as a steady-state error, a NaN flux as
    # levels that are not ascending)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(VALID_BLOCKS[block], **{field: value})


def test_rng_streams_are_independent():
    a = rng_stream(seed, "noise", 0).normal(size=8)
    b = rng_stream(seed, "noise", 0).normal(size=8)
    c = rng_stream(seed, "noise", 1).normal(size=8)
    d = rng_stream(seed, "bootstrap", 0).normal(size=8)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 0.0
    assert np.max(np.abs(a - d)) > 0.0
    with pytest.raises(ValueError):
        rng_stream(seed, "weather")


def test_stream_seed_is_stable():
    assert stream_seed(seed, "bootstrap") == stream_seed(seed, "bootstrap")
    assert stream_seed(seed, "bootstrap") != stream_seed(seed + 1, "bootstrap")


def test_config_files_in_repo_parse():
    for name in ("default.json", "working_point.json"):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.system.resonator.coupling_ghz > 0.0


def _edited(data, path, value=None, delete=False):
    """``data`` with the key at dotted ``path`` set to ``value`` or deleted."""
    *parents, key = path.split(".")
    block = data
    for name in parents:
        block = block[name]
    if delete:
        del block[key]
    else:
        block[key] = value
    return data


@pytest.mark.parametrize("path", ["bath", "system.cavity", "system.transmon.ej_ghz",
                                  "protocol.step_ns"])
def test_unknown_key_names_its_path_at_every_depth(default_config, path):
    with pytest.raises(ConfigError, match=rf"^unknown key\(s\) {path}$"):
        config_from_dict(_edited(default_config.as_dict(), path, 1.0))


@pytest.mark.parametrize("path", ["dissipation", "system.resonator", "system.transmon.ec_ghz",
                                  "dissipation.bath_t_mk"])
def test_missing_key_names_its_path_at_every_depth(default_config, path):
    with pytest.raises(ConfigError, match=rf"^missing required key\(s\) {path}$"):
        config_from_dict(_edited(default_config.as_dict(), path, delete=True))


@pytest.mark.parametrize("path, value, kind", [
    ("system", [], "list"), ("readout", None, "NoneType"),
    ("system.transmon", 3, "int"), ("protocol", "IQ", "str")])
def test_block_that_is_not_a_mapping_names_its_path(default_config, path, value, kind):
    with pytest.raises(ConfigError, match=rf"^{path}: expected a mapping, got {kind}$"):
        config_from_dict(_edited(default_config.as_dict(), path, value))


def test_config_root_must_be_a_mapping():
    with pytest.raises(ConfigError, match="^config root: expected a mapping, got list$"):
        config_from_dict([])


def test_root_fields_are_checked_by_the_run_config(default_config):
    # the seed's type is checked by the builder, the output path by RunConfig
    for key, value, message in (("seed", "abc", "seed must be an integer, got 'abc'"),
                                ("output_dir", 3, "output_dir must be a string path")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config_from_dict(_edited(default_config.as_dict(), key, value))
    with pytest.raises(ValueError, match="^output_dir must be a string path$"):
        RunConfig(default_config.system, default_config.dissipation, output_dir=3)


def test_negative_seed_is_a_config_error(default_config):
    # numpy's SeedSequence once rejected it mid-run, without naming the seed
    with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
        config_from_dict(_edited(default_config.as_dict(), "seed", -1))
    with pytest.raises(ConfigError, match="^seed must be non-negative, got -2$"):
        with_changes(default_config, {"seed": -2})
    assert config_from_dict(_edited(default_config.as_dict(), "seed", 0)).seed == 0


@pytest.mark.parametrize("value, message", [
    (float("inf"), "seed must be a finite number, got inf"),
    (float("nan"), "seed must be a finite number, got nan"),
    (1.5, "seed must be an integer, got 1.5"), ("7", "seed must be an integer, got '7'")])
def test_run_config_checks_the_seed_kind(default_config, value, message):
    # from Python these once passed and failed later in numpy's SeedSequence
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig(default_config.system, default_config.dissipation, seed=value)


@pytest.mark.parametrize("path, value, message", [
    ("protocol.n_bootstrap", 2.5, "protocol: n_bootstrap must be an integer, got 2.5"),
    ("protocol.n_bootstrap", True, "protocol: n_bootstrap must be an integer, got True"),
    ("system.transmon.n_transmon_levels", 3.5,
     "system.transmon: n_transmon_levels must be an integer, got 3.5"),
    ("seed", 1.0, "seed must be an integer, got 1.0"),
    ("dissipation.bath_t_mk", "150", "dissipation: bath_t_mk must be a number, got '150'"),
    ("dissipation.bath_t_mk", None, "dissipation: bath_t_mk must be a number, got None"),
    ("readout.noise_sigma", False, "readout: noise_sigma must be a number, got False"),
    ("protocol.clamp_out_of_range", 1,
     "protocol: clamp_out_of_range must be true or false, got 1"),
    ("readout.noise_sigma", float("nan"), "readout: noise_sigma must be a finite number, got nan"),
    ("dissipation.bath_t_mk", float("nan"),
     "dissipation: bath_t_mk must be a finite number, got nan"),
    ("protocol.gap_ns", float("nan"), "protocol: gap_ns must be a finite number, got nan"),
    ("dissipation.bath_t_mk", float("inf"),
     "dissipation: bath_t_mk must be a finite number, got inf"),
    ("readout.noise_sigma", float("-inf"),
     "readout: noise_sigma must be a finite number, got -inf"),
])
def test_field_types_are_checked_by_the_builder(default_config, path, value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(_edited(default_config.as_dict(), path, value))


def test_float_fields_take_integers(default_config):
    # JSON writes 12000 for 12000.0; the integer is kept as written
    cfg = config_from_dict(_edited(default_config.as_dict(), "dissipation.bath_t_mk", 150))
    assert cfg.dissipation.bath_t_mk == 150 and cfg.system.resonator.q_loaded == 12000


def test_readout_and_protocol_blocks_default(default_config):
    cfg = RunConfig(default_config.system, default_config.dissipation)
    assert cfg.readout == ReadoutConfig() and cfg.protocol == ProtocolConfig()
    data = default_config.as_dict()
    del data["readout"], data["protocol"]
    assert config_from_dict(data) == dataclasses.replace(cfg, seed=default_config.seed)


@pytest.mark.parametrize("name", ["default.json", "working_point.json"])
def test_with_no_changes_returns_an_equal_config(name):
    cfg = load_config(CONFIG_DIR / name)
    assert with_changes(cfg, {}) == cfg
    assert with_changes(cfg.protocol, {}, "protocol") == cfg.protocol


def test_with_changes_merges_nested_fields(default_config):
    cfg = with_changes(default_config, {"system": {"transmon": {"flux_quantum_fraction": 0.05}},
                                        "protocol": {"gap_ns": 2.0}, "seed": 9})
    assert cfg.system.transmon == dataclasses.replace(default_config.system.transmon,
                                                      flux_quantum_fraction=0.05)
    assert cfg.system.resonator == default_config.system.resonator
    assert cfg.protocol == dataclasses.replace(default_config.protocol, gap_ns=2.0)
    assert (cfg.dissipation, cfg.readout, cfg.seed) == (
        default_config.dissipation, default_config.readout, 9)


def test_with_changes_errors_name_the_block(default_config):
    for block, changes, path, message in (
            (default_config, {"protocol": {"gap_ns": -1.0}}, "",
             "protocol: gap_ns must be non-negative"),
            (default_config.protocol, {"gap_ns": -1.0}, "protocol",
             "protocol: gap_ns must be non-negative"),
            (default_config, {"dissipation": {"bath_t_mk": -5.0}}, "",
             "dissipation: bath_t_mk must be positive"),
            (default_config, {"protocol": {"step_ns": 1.0}}, "",
             r"unknown key\(s\) protocol.step_ns")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            with_changes(block, changes, path)
