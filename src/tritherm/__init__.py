"""Temperature sensing with a three-level transmon.

Simulates the open transmon-resonator system at a set bath temperature,
synthesizes averaged heterodyne responses for six pi-gate sequences, and
recovers the temperature from slopes of response differences (coefficients
A, B, C with the built-in consistency check C = A*B).
"""

from .config import ConfigError, ProtocolConfig, RunConfig, SystemSpec, load_config
from .constants import GHZ_TO_MK
from .errorlab import (
    MonteCarloSpec,
    repeated_measurement_stats,
    slope_bias_study,
    temperature_discrepancy,
)
from .hilbert import (
    LevelEnergies,
    Populations,
    ResonatorSpec,
    TransmonSpec,
    build_composite_operators,
    diagonalize_transmon,
    thermal_populations,
)
from .lindblad import (
    DissipationSpec,
    ThermalOccupations,
    build_liouvillian,
    steady_state,
    thermal_occupations,
)
from .pipeline import SimulationResult, estimate, run_protocol
from .pulses import (
    CalibrationReport,
    GateSequence,
    compile_sequence,
    prepare_sequences,
    run_rabi_calibration,
)
from .readout import (
    IQTrace,
    ReadoutConfig,
    add_noise,
    window,
)
from .thermometry import (
    EstimateReport,
    SequenceResponses,
    TemperatureEstimate,
    coefficient_vs_temperature,
    deming_fit,
    estimate_temperature,
    invert_temperature,
)

__version__ = "0.1.0"
