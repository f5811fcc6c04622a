"""Run configuration: nested dataclass blocks, strict JSON parsing, and the
master-seed stream discipline.

Configs are JSON with one block per module (system.transmon,
system.resonator, dissipation, readout, protocol).  Parsing is strict:
unknown keys are rejected with their full path, so a typo in a physics
parameter fails instead of silently running defaults.  Command-line flags
and sweep points change a config through ``with_changes``, which rebuilds
it by the same rules, so their errors name their block too.

All randomness flows from the single ``seed`` through named substreams
(noise, bootstrap, montecarlo), so any artifact can be
regenerated bit for bit while the streams stay statistically independent.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .constants import _check_finite_fields, _check_kind
from .hilbert import CompositeOperators, ResonatorSpec, TransmonSpec, build_composite_operators
from .lindblad import DissipationSpec
from .readout import ReadoutConfig


class ConfigError(Exception):
    """Invalid, missing, or unparseable run configuration."""


SEED_STREAMS = {"noise": 1, "bootstrap": 2, "montecarlo": 3}


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
    n_bootstrap: int = 0
    clamp_out_of_range: bool = False

    def __post_init__(self):
        if not 40.0 <= self.pulse_duration_ns <= 200.0:
            raise ValueError("pulse_duration_ns must lie in [40, 200]")
        if not self.gap_ns >= 0:  # also rejects NaN
            raise ValueError("gap_ns must be non-negative")
        if not self.n_bootstrap >= 0:
            raise ValueError("n_bootstrap must be non-negative")
        _check_finite_fields(self)


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    dissipation: DissipationSpec
    readout: ReadoutConfig = dataclasses.field(default_factory=ReadoutConfig)
    protocol: ProtocolConfig = dataclasses.field(default_factory=ProtocolConfig)
    seed: int = 0
    output_dir: Optional[str] = None

    def __post_init__(self):
        _check_kind("seed", int, self.seed)
        if self.seed < 0:  # numpy's SeedSequence takes none
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string path")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    # get_type_hints evaluates the string annotations anew on every call
    return get_type_hints(cls)


def _build_block(cls, data: dict, path: str):
    """An instance of the config dataclass ``cls`` from the mapping ``data``,
    descending into every field whose type is itself a config dataclass.
    ``path`` is the block's dotted name ("" for the root); every error,
    from the checks here or from a block's own validation, names it."""
    prefix = path + "." if path else ""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config root'}: expected a mapping, "
                          f"got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(prefix + k for k in unknown)}")
    missing = [f.name for f in fields if f.name not in data and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing required key(s) {', '.join(prefix + k for k in missing)}")
    types = _field_types(cls)
    values = {k: _build_block(types[k], v, prefix + k) if dataclasses.is_dataclass(types[k])
              else v for k, v in data.items()}
    try:
        for k, v in values.items():
            _check_kind(k, types[k], v)
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def config_from_dict(data: dict) -> RunConfig:
    return _build_block(RunConfig, data, "")


def _merge(data: dict, changes: dict) -> dict:
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            _merge(data[key], value)
        else:
            data[key] = value
    return data


def with_changes(block, changes: dict, path: str = ""):
    """``block`` with the nested ``changes`` merged into its fields, rebuilt
    and checked by ``_build_block``; ``path`` names the block in errors."""
    return _build_block(type(block), _merge(dataclasses.asdict(block), changes), path)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
