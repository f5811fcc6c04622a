"""Physical constants and unit conversions.

All frequencies and energies are quoted as f = E/h in GHz, times in ns,
temperatures in mK.  Every h/k_B conversion in the package goes through
this module so the convention lives in exactly one place.  So do the
number checks of fields and arguments (``_check_kind``), since this module
imports no other of the package and every one can import it.
"""

import dataclasses
import numbers

import numpy as np

H_PLANCK = 6.62607015e-34  # J s (CODATA exact)
K_BOLTZMANN = 1.380649e-23  # J/K (CODATA exact)

# temperature equivalent of a 1 GHz quantum, in mK: h * 1 GHz / k_B
GHZ_TO_MK = H_PLANCK * 1e9 / K_BOLTZMANN * 1e3

TWO_PI = 2.0 * np.pi


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          bool: (bool, "true or false")}


def _check_finite(name: str, value) -> None:
    if isinstance(value, numbers.Real) and not -np.inf < value < np.inf:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_kind(name: str, kind, value) -> None:
    """Raise unless ``value`` suits a field or argument annotated int, float
    or bool: a number with a fraction is no integer, true/false is no
    number, and a number is finite (JSON reads NaN and Infinity), which is
    checked first, so an infinite count is named as such."""
    if kind in _KINDS:
        base, what = _KINDS[kind]
        _check_finite(name, value)
        if not isinstance(value, base) or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_finite_fields(block) -> None:
    """Raise, in ``_check_kind``'s words, if a number field of the dataclass
    ``block`` is infinite or NaN.  Each config block calls it after its
    range checks, so a NaN those reject keeps their message."""
    for f in dataclasses.fields(block):
        _check_finite(f.name, getattr(block, f.name))


def boltzmann_exponent(f_ghz: float, t_mk: float) -> float:
    """h f / (k_B T) for f in GHz and T in mK."""
    return GHZ_TO_MK * f_ghz / t_mk


def bose_occupation(f_ghz: float, t_mk: float) -> float:
    """Mean thermal photon number 1/(exp(hf/kT) - 1)."""
    if f_ghz <= 0.0:
        raise ValueError(f"frequency must be positive, got {f_ghz} GHz")
    if t_mk <= 0.0:
        raise ValueError(f"temperature must be positive, got {t_mk} mK")
    x = boltzmann_exponent(f_ghz, t_mk)
    if x > 700.0:  # expm1 overflows; occupation is zero to double precision
        return 0.0
    return 1.0 / np.expm1(x)


def rate_from_mhz(gamma_mhz: float) -> float:
    """Decay rate in 1/ns from a rate quoted in MHz (1/T1 convention)."""
    return gamma_mhz * 1e-3


def kappa_rate_from_mhz(kappa_over_2pi_mhz: float) -> float:
    """Resonator energy decay rate in 1/ns from the linewidth kappa/2pi in MHz."""
    return TWO_PI * kappa_over_2pi_mhz * 1e-3
