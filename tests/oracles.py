"""Exact noiseless oracles the tests hold the simulator and the estimator
against: the population permutation a gate sequence should perform, and the
coefficients A, B, C as population ratios."""

from tritherm.hilbert import Populations
from tritherm.pulses import GateSequence
from tritherm.thermometry import COEFFICIENTS, DegenerateDataError


def apply_sequence_ideal(populations: Populations, seq: GateSequence) -> Populations:
    """Exact population permutation of the sequence."""
    p = populations.as_array()
    return Populations(*(p[list(seq.expected_permutation)]))


def coefficient_from_populations(p: Populations, which: str) -> float:
    """Exact population ratio for coefficient A, B, or C."""
    num_den = {
        "A": (p.p_g - p.p_e, p.p_g - p.p_f),
        "B": (p.p_e - p.p_f, p.p_g - p.p_e),
        "C": (p.p_e - p.p_f, p.p_g - p.p_f),
    }
    if which not in num_den:
        raise ValueError(f"coefficient must be one of {COEFFICIENTS}")
    num, den = num_den[which]
    if abs(den) <= 1e-12:
        raise DegenerateDataError(
            f"coefficient {which} denominator {den:.2e} is degenerate "
            f"(equal populations)"
        )
    return num / den
