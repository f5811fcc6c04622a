"""Run configuration: nested dataclass blocks, strict JSON parsing, and the
master-seed stream discipline.

Configs are JSON with one block per module (system.transmon,
system.resonator, dissipation, readout, protocol).  Parsing is strict:
unknown keys are rejected with their full path, so a typo in a physics
parameter fails instead of silently running defaults.

All randomness flows from the single ``seed`` through named substreams
(calibration, noise, bootstrap, montecarlo), so any artifact can be
regenerated bit for bit while the streams stay statistically independent.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .hilbert import CompositeOperators, ResonatorSpec, TransmonSpec, build_composite_operators
from .lindblad import DissipationSpec
from .readout import ReadoutConfig


class ConfigError(Exception):
    """Invalid, missing, or unparseable run configuration."""


SEED_STREAMS = {"calibration": 0, "noise": 1, "bootstrap": 2, "montecarlo": 3}


def rng_stream(seed: Optional[int], name: str, index: int = 0) -> np.random.Generator:
    """Independent generator for one named substream of the master seed."""
    if name not in SEED_STREAMS:
        raise ValueError(f"unknown seed stream {name!r}; expected {sorted(SEED_STREAMS)}")
    ss = np.random.SeedSequence(seed, spawn_key=(SEED_STREAMS[name], index))
    return np.random.default_rng(ss)


def stream_seed(seed: Optional[int], name: str, index: int = 0) -> int:
    """Integer seed derived from a named substream, for APIs that take ints."""
    return int(rng_stream(seed, name, index).integers(0, 2**63))


@dataclass(frozen=True)
class SystemSpec:
    """The simulated device: transmon, readout resonator, and their coupling
    (the coupling amplitude lives on the resonator block)."""

    transmon: TransmonSpec
    resonator: ResonatorSpec

    def build_operators(self) -> CompositeOperators:
        return build_composite_operators(self.transmon, self.resonator)


@dataclass(frozen=True)
class ProtocolConfig:
    """Pulse-sequence and estimator options."""

    pulse_duration_ns: float = 56.0
    gap_ns: float = 4.0
    delta: float = 1.0
    quadratures: str = "IQ"
    aggregation: str = "inverse_variance"
    n_bootstrap: int = 0
    clamp_out_of_range: bool = False

    def __post_init__(self):
        if not 40.0 <= self.pulse_duration_ns <= 200.0:
            raise ValueError("pulse_duration_ns must lie in [40, 200]")
        if self.gap_ns < 0:
            raise ValueError("gap_ns must be non-negative")
        if not self.delta > 0:  # also rejects NaN
            raise ValueError("delta must be positive")
        if self.quadratures not in ("I", "IQ"):
            raise ValueError("quadratures must be 'I' or 'IQ'")
        if self.aggregation not in ("inverse_variance", "mean"):
            raise ValueError("aggregation must be 'inverse_variance' or 'mean'")
        if self.n_bootstrap < 0:
            raise ValueError("n_bootstrap must be non-negative")


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    dissipation: DissipationSpec
    readout: ReadoutConfig
    protocol: ProtocolConfig
    seed: int = 0
    output_dir: Optional[str] = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_block(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - field_names)
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(path + '.' + k for k in unknown)}")
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    missing = sorted(required - set(data))
    if missing:
        raise ConfigError(f"missing required key(s) {', '.join(path + '.' + k for k in missing)}")
    try:
        return cls(**data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {"system", "dissipation", "readout", "protocol", "seed", "output_dir"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {', '.join(unknown)}")
    if "system" not in data:
        raise ConfigError("missing required block 'system'")
    system_block = data["system"]
    if not isinstance(system_block, dict):
        raise ConfigError("system: expected a mapping")
    sys_unknown = sorted(set(system_block) - {"transmon", "resonator"})
    if sys_unknown:
        raise ConfigError(f"unknown key(s) {', '.join('system.' + k for k in sys_unknown)}")
    for sub in ("transmon", "resonator"):
        if sub not in system_block:
            raise ConfigError(f"missing required block system.{sub}")
    system = SystemSpec(
        transmon=_build_block(TransmonSpec, system_block["transmon"], "system.transmon"),
        resonator=_build_block(ResonatorSpec, system_block["resonator"], "system.resonator"),
    )
    if "dissipation" not in data:
        raise ConfigError("missing required block 'dissipation'")
    dissipation = _build_block(DissipationSpec, data["dissipation"], "dissipation")
    readout = _build_block(ReadoutConfig, data.get("readout", {}), "readout")
    protocol = _build_block(ProtocolConfig, data.get("protocol", {}), "protocol")
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")
    return RunConfig(system, dissipation, readout, protocol, seed, output_dir)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
