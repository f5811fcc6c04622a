"""Slope-ratio thermometry: difference pairs, Deming fits, and temperature
inversion with the C = A*B consistency check.

Each of the six sequence responses is a population-weighted mixture of the
three pure-state responses, so differences of response pairs are collinear
point clouds whose slopes are population ratios:

    A = (p_g - p_e)/(p_g - p_f),  B = (p_e - p_f)/(p_g - p_e),  C = A*B.

For a thermal state the ratios depend only on temperature,

    A(T) = (1 - exp(-h f_ge / k_B T)) / (1 - exp(-h f_gf / k_B T)),
    B(T) = (exp(-h f_ge / k_B T) - exp(-h f_gf / k_B T)) / (1 - exp(-h f_ge / k_B T)),

with A strictly decreasing and B strictly increasing in T, so each fitted
slope inverts to a temperature.  The inversion solves for
e = exp(-h f_ge / k_B T) by Newton's method, which rises monotonically to the
root from e = 0 because each coefficient equation is convex in e.
Transition frequencies enter as positive numbers; the signs live in the
exponents above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constants import GHZ_TO_MK, boltzmann_exponent
from .hilbert import LevelEnergies
from .readout import IQTrace

T_BRACKET_MK = (1.0, 2000.0)
T_GUARD_MK = (0.1, 10000.0)

COEFFICIENTS = ("A", "B", "C")
DIRECTIONS = ("ge", "gf", "ef")


class DegenerateDataError(RuntimeError):
    """Difference series carries no usable slope information."""


class SlopeOutOfRangeError(RuntimeError):
    """Fitted slope falls outside the coefficient's attainable range."""


@dataclass(frozen=True)
class SequenceResponses:
    """The six windowed sequence traces, on one common time grid."""

    x0: IQTrace
    x1: IQTrace
    x2: IQTrace
    y0: IQTrace
    y1: IQTrace
    y2: IQTrace

    def __post_init__(self):
        grid = self.x0.t_ns
        for name, trace in self.as_dict().items():
            if not np.array_equal(trace.t_ns, grid):
                raise ValueError(f"trace {name} is not on the shared time grid")
            if trace.label and trace.label != name:
                raise ValueError(f"trace labeled {trace.label!r} in slot {name}")

    def as_dict(self) -> Dict[str, IQTrace]:
        return {"x0": self.x0, "x1": self.x1, "x2": self.x2,
                "y0": self.y0, "y1": self.y1, "y2": self.y2}

    @classmethod
    def from_dict(cls, traces: Dict[str, IQTrace]) -> "SequenceResponses":
        try:
            return cls(**{k: traces[k] for k in ("x0", "x1", "x2", "y0", "y1", "y2")})
        except KeyError as exc:
            raise ValueError(f"missing sequence trace {exc}") from exc


@dataclass(frozen=True)
class DemingFit:
    """Closed-form errors-in-variables straight-line fit."""

    slope: float
    intercept: float
    ci95: Tuple[float, float]
    residual_rms: float

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be non-negative")


@dataclass(frozen=True)
class SlopeEstimate:
    """One fitted slope, tagged by coefficient and difference direction.

    ``direction`` names the pure-response difference the pair lies along
    (ge, gf, ef) and ``intercept`` is that pair's fitted intercept;
    aggregated estimates carry None for both.
    """

    coefficient: str
    direction: Optional[str]
    value: float
    ci95: Tuple[float, float]
    residual_rms: float
    intercept: Optional[float] = None

    def __post_init__(self):
        if self.coefficient not in COEFFICIENTS:
            raise ValueError(f"coefficient must be one of {COEFFICIENTS}")
        if self.direction is not None and self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS} or None")
        if not self.ci95[0] <= self.value <= self.ci95[1]:
            raise ValueError("ci95 must contain the point value")
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be non-negative")


@dataclass(frozen=True)
class TemperatureEstimate:
    t_mk: float
    source_coefficient: str
    slope: SlopeEstimate
    t_ci95_mk: Tuple[float, float]

    def __post_init__(self):
        if self.t_mk <= 0:
            raise ValueError("t_mk must be positive")


# coefficient -> three ((num_a, num_b), (den_a, den_b), direction) difference pairs;
# the slope of (num_a - num_b) against (den_a - den_b) equals the coefficient.
DIFFERENCE_PAIRS = {
    "A": ((("x0", "x1"), ("y0", "y1"), "ge"),
          (("y0", "x2"), ("x0", "y2"), "gf"),
          (("y1", "y2"), ("x1", "x2"), "ef")),
    "B": ((("x1", "y1"), ("y0", "x2"), "gf"),
          (("x2", "y2"), ("x0", "x1"), "ge"),
          (("x0", "y0"), ("y1", "y2"), "ef")),
    "C": ((("x1", "y1"), ("x0", "y2"), "gf"),
          (("x2", "y2"), ("y0", "y1"), "ge"),
          (("x0", "y0"), ("x1", "x2"), "ef")),
}


def difference_pairs(responses: SequenceResponses):
    """The nine (x_series, y_series, coefficient, direction) difference pairs.

    Series are complex (I + iQ) windowed samples; the y series plotted against
    the x series has the coefficient as its slope.
    """
    traces = {k: t.complex_vals() for k, t in responses.as_dict().items()}
    out = []
    for coef in COEFFICIENTS:
        for (na, nb), (da, db), direction in DIFFERENCE_PAIRS[coef]:
            out.append((traces[da] - traces[db], traces[na] - traces[nb],
                        coef, direction))
    return out


def _series_to_points(series: np.ndarray, quadratures: str) -> np.ndarray:
    if quadratures == "IQ":
        return np.concatenate([series.real, series.imag])
    if quadratures == "I":
        return series.real.copy()
    raise ValueError(f"quadratures must be 'I' or 'IQ', got {quadratures!r}")


# resamples drawn and reduced per block: bounds the b x n index and count
# arrays to a fixed size whatever the number of resamples
_BOOTSTRAP_BLOCK = 64


def _deming_closed_form(sxx, syy, sxy, delta):
    """Deming slope from the second central moments (scalars or arrays)."""
    term = syy - delta * sxx
    return (term + np.sqrt(term * term + 4.0 * delta * sxy * sxy)) / (2.0 * sxy)


def deming_slope(xs: np.ndarray, ys: np.ndarray, delta: float = 1.0) -> Tuple[float, float]:
    """Closed-form Deming slope and intercept for y-to-x noise variance ratio
    ``delta``.

    Raises DegenerateDataError when x or y takes a single value (tested
    exactly, not through a variance that rounding leaves near zero) or when
    the covariance is exactly zero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if delta <= 0.0:
        raise ValueError("variance ratio delta must be positive")
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need at least 3 paired points")
    if xs.min() == xs.max():
        raise DegenerateDataError("x series takes a single value")
    if ys.min() == ys.max():
        raise DegenerateDataError("y series takes a single value; slope undefined")
    xb, yb = xs.mean(), ys.mean()
    sxx = np.mean((xs - xb) ** 2)
    syy = np.mean((ys - yb) ** 2)
    sxy = np.mean((xs - xb) * (ys - yb))
    if sxy == 0.0:
        raise DegenerateDataError("x and y series are uncorrelated; slope undefined")
    slope = _deming_closed_form(sxx, syy, sxy, delta)
    return float(slope), float(yb - slope * xb)


def _bootstrap_slopes(xs: np.ndarray, ys: np.ndarray, delta: float,
                      n_bootstrap: int, gen: np.random.Generator) -> np.ndarray:
    """Deming slopes of the non-degenerate resamples, in draw order."""
    n = len(xs)
    xc, yc = xs - xs.mean(), ys - ys.mean()
    basis = np.column_stack([xc, yc, xc * xc, yc * yc, xc * yc])
    # a resample that draws one point n times is single-valued in x and y; in
    # a series with repeated values, draws of several points can be too
    repeating = [v for v in (xs, ys) if np.unique(v).size < n]
    kept = []
    for start in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        b = min(_BOOTSTRAP_BLOCK, n_bootstrap - start)
        idx = gen.integers(0, n, size=(b, n))
        counts = np.bincount((idx + n * np.arange(b)[:, None]).ravel(),
                             minlength=b * n).reshape(b, n)
        mx, my, mxx, myy, mxy = (counts @ basis).T / n
        sxy = mxy - mx * my
        single = counts.max(axis=1) == n
        for v in repeating:
            drawn = v[idx]
            single |= drawn.min(axis=1) == drawn.max(axis=1)
        ok = ~single & (sxy != 0.0)
        kept.append(_deming_closed_form(mxx[ok] - mx[ok] ** 2, myy[ok] - my[ok] ** 2,
                                        sxy[ok], delta))
    return np.concatenate(kept)


def deming_fit(xs, ys, variance_ratio_delta: float = 1.0,
               n_bootstrap: int = 1000, rng=None) -> DemingFit:
    """Deming fit with a nonparametric bootstrap 95% CI on the slope.

    ``rng`` seeds the bootstrap (int, Generator, or None); with
    ``n_bootstrap = 0`` the CI degenerates to the point value.

    A resample is a row of counts: how often each of the n points was drawn.
    Its Deming slope needs only the five moments of the resampled points,
    and with the data centred on the full-sample mean those are one count
    matrix times the n x 5 table [x, y, x^2, y^2, xy], divided by n.
    Resamples are drawn and reduced in blocks of ``_BOOTSTRAP_BLOCK``, which
    keeps memory flat in ``n_bootstrap``. A block's ``integers(0, n,
    size=(b, n))`` draws the same indices as b successive size-n draws, so
    the resamples, and hence the CI, do not depend on the block size. As in
    ``deming_slope``, a resample in which x or y takes a single value, or
    whose covariance is exactly zero, is skipped; fewer than
    ``n_bootstrap // 2`` kept resamples raise DegenerateDataError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = deming_slope(xs, ys, variance_ratio_delta)
    resid = (ys - intercept - slope * xs) / np.sqrt(1.0 + slope * slope / variance_ratio_delta)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if n_bootstrap > 0:
        samples = _bootstrap_slopes(xs, ys, variance_ratio_delta, n_bootstrap,
                                    np.random.default_rng(rng))
        if len(samples) < n_bootstrap // 2:
            raise DegenerateDataError("bootstrap resamples mostly degenerate")
        lo, hi = np.percentile(samples, [2.5, 97.5])
        lo, hi = min(lo, slope), max(hi, slope)
    else:
        lo = hi = slope
    return DemingFit(slope, intercept, (float(lo), float(hi)), rms)


def _frequencies(levels: Union[LevelEnergies, Tuple[float, float]]) -> Tuple[float, float]:
    if isinstance(levels, LevelEnergies):
        return levels.f_ge_ghz, levels.f_gf_ghz
    f_ge, f_gf = levels
    if f_ge <= 0 or f_gf <= 0:
        raise ValueError("transition frequencies must be positive")
    return float(f_ge), float(f_gf)


def coefficient_vs_temperature(levels, t_mk: float, which: str) -> float:
    """Thermal-state value of coefficient ``which`` at temperature ``t_mk``.

    ``levels`` is a LevelEnergies or a bare (f_ge_ghz, f_gf_ghz) pair (the
    latter admits degenerate frequencies for algebra checks).
    """
    if not T_GUARD_MK[0] <= t_mk <= T_GUARD_MK[1]:
        raise ValueError(f"temperature {t_mk} mK outside guard range {T_GUARD_MK}")
    f_ge, f_gf = _frequencies(levels)
    e_ge = np.exp(-boltzmann_exponent(f_ge, t_mk))
    e_gf = np.exp(-boltzmann_exponent(f_gf, t_mk))
    if which == "A":
        return (1.0 - e_ge) / (1.0 - e_gf)
    if which == "B":
        return (e_ge - e_gf) / (1.0 - e_ge)
    if which == "C":
        return (e_ge - e_gf) / (1.0 - e_gf)
    raise ValueError(f"coefficient must be one of {COEFFICIENTS}")


def attainable_range(levels, which: str) -> Tuple[float, float]:
    """Coefficient values reachable over the inversion bracket, low to high."""
    v1 = coefficient_vs_temperature(levels, T_BRACKET_MK[0], which)
    v2 = coefficient_vs_temperature(levels, T_BRACKET_MK[1], which)
    return (v2, v1) if v1 > v2 else (v1, v2)


def _invert_scalar(levels, which: str, value: float, clamp: bool) -> float:
    t_lo, t_hi = T_BRACKET_MK
    lo, hi = attainable_range(levels, which)
    v_lo, v_hi = (hi, lo) if which == "A" else (lo, hi)  # A falls with T, B and C rise
    if not lo <= value <= hi:
        if not clamp:
            raise SlopeOutOfRangeError(
                f"slope {value:.6g} outside the attainable range [{lo:.6g}, {hi:.6g}] "
                f"of coefficient {which} over {T_BRACKET_MK} mK; enable clamping to "
                f"pin to the bracket edge"
            )
        value = min(max(value, lo), hi)
    if value == v_lo:
        return t_lo
    if value == v_hi:
        return t_hi
    # With e = exp(-h f_ge / k_B T) and r = f_gf / f_ge > 1, C = (e - e^r) / (1 - e^r)
    # and B = (e - e^r) / (1 - e) make e a root of g(e) = a e^r - b e + c:
    # (a, b, c) = (1 - C, 1, C), or (1, 1 + B, B); A goes through 1 - A = C.
    # On [0, 1] g is convex with g(0) = c > 0 and g(1) = 0, so Newton's method
    # from e = 0 rises monotonically to the physical root e* < 1; it has
    # converged when a step no longer raises e.  Rounding can put T ~1e-11 mK
    # past the bracket, so T is clipped to it.
    f_ge, f_gf = _frequencies(levels)
    r = f_gf / f_ge
    if which == "A":
        value = 1.0 - value
    a, b, c = (1.0, 1.0 + value, value) if which == "B" else (1.0 - value, 1.0, value)
    e = 0.0
    for _ in range(100):
        e_r1 = e ** (r - 1.0)
        e_next = e - (a * e_r1 * e - b * e + c) / (a * r * e_r1 - b)
        if e_next <= e:
            return float(min(max(GHZ_TO_MK * f_ge / -np.log(e), t_lo), t_hi))
        e = e_next
    raise RuntimeError("Newton iteration for exp(-h f_ge / k_B T) not converged in 100 steps")


def invert_temperature(slope: SlopeEstimate, levels, clamp: bool = False) -> TemperatureEstimate:
    """Temperature whose thermal coefficient equals the fitted slope.

    Newton's method in e = exp(-h f_ge / k_B T) on the convex equation of B
    or C (1 - A = C), started at e = 0, over the 1 mK - 2 K bracket; the CI
    comes from inverting both slope CI bounds (clamped to the bracket when
    they spill past it).  ``clamp=True`` pins an out-of-range point estimate
    to the bracket edge instead of raising.
    """
    t = _invert_scalar(levels, slope.coefficient, slope.value, clamp)
    residual = abs(coefficient_vs_temperature(levels, t, slope.coefficient) - slope.value)
    if not clamp and residual > 1e-10:
        raise RuntimeError(f"inversion residual {residual:.2e} above 1e-10")
    bounds = sorted(
        _invert_scalar(levels, slope.coefficient, v, clamp=True) for v in slope.ci95
    )
    return TemperatureEstimate(t, slope.coefficient, slope, (bounds[0], bounds[1]))


@dataclass(frozen=True)
class EstimateReport:
    """Full protocol output: per-coefficient temperatures, the nine slopes,
    and the C = A*B consistency diagnostic."""

    estimates: Tuple[TemperatureEstimate, TemperatureEstimate, TemperatureEstimate]
    pair_slopes: Tuple[SlopeEstimate, ...]
    consistency: float
    quadratures: str
    window_ns: Tuple[float, float]
    seed: Optional[int] = None

    def temperature(self, coefficient: str) -> TemperatureEstimate:
        for est in self.estimates:
            if est.source_coefficient == coefficient:
                return est
        raise KeyError(coefficient)

    def as_dict(self) -> dict:
        out = {}
        for est in self.estimates:
            c = est.source_coefficient
            out[f"T_{c}_mK"] = est.t_mk
            out[f"T_{c}_ci95_mK"] = list(est.t_ci95_mk)
            out[f"lambda_{c}"] = est.slope.value
        out["pair_slopes"] = [
            {"coefficient": s.coefficient, "direction": s.direction, "value": s.value,
             "ci95": list(s.ci95), "residual_rms": s.residual_rms,
             "intercept": s.intercept}
            for s in self.pair_slopes
        ]
        out["consistency_C_vs_AB"] = self.consistency
        out["quadratures"] = self.quadratures
        out["window_ns"] = list(self.window_ns)
        out["seed"] = self.seed
        return out


def _aggregate(fits: Sequence[DemingFit], coefficient: str,
               aggregation: str) -> SlopeEstimate:
    values = np.array([f.slope for f in fits])
    halfwidths = np.array([0.5 * (f.ci95[1] - f.ci95[0]) for f in fits])
    if aggregation == "inverse_variance" and np.all(halfwidths > 0):
        w = 1.0 / halfwidths ** 2
        value = float(np.sum(w * values) / np.sum(w))
        half = 1.0 / np.sqrt(np.sum(w))
    elif aggregation in ("inverse_variance", "mean"):
        value = float(values.mean())
        half = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    rms = float(np.sqrt(np.mean([f.residual_rms ** 2 for f in fits])))
    lo, hi = value - 1.96 * half, value + 1.96 * half
    return SlopeEstimate(coefficient, None, value, (min(lo, value), max(hi, value)), rms)


def estimate_temperature(
    responses: SequenceResponses,
    levels,
    delta: float = 1.0,
    quadratures: str = "IQ",
    n_bootstrap: int = 0,
    seed: Optional[int] = None,
    aggregation: str = "inverse_variance",
    clamp: bool = False,
) -> EstimateReport:
    """Run the estimator on windowed sequence responses.

    Fits all nine difference pairs with Deming regression (three redundant
    directions per coefficient), aggregates each coefficient's slopes
    (inverse-variance weights when bootstrap CIs are available, plain mean
    otherwise), and inverts A, B, C to temperatures.
    """
    pairs = difference_pairs(responses)
    rng = np.random.default_rng(seed)
    pair_estimates: List[SlopeEstimate] = []
    fits: Dict[str, List[DemingFit]] = {c: [] for c in COEFFICIENTS}
    for x_series, y_series, coefficient, direction in pairs:
        fit = deming_fit(
            _series_to_points(x_series, quadratures),
            _series_to_points(y_series, quadratures),
            variance_ratio_delta=delta,
            n_bootstrap=n_bootstrap,
            rng=rng.spawn(1)[0] if n_bootstrap > 0 else None,
        )
        fits[coefficient].append(fit)
        pair_estimates.append(SlopeEstimate(coefficient, direction, fit.slope,
                                            fit.ci95, fit.residual_rms, fit.intercept))
    aggregated = {c: _aggregate(fits[c], c, aggregation) for c in COEFFICIENTS}
    consistency = abs(
        aggregated["C"].value - aggregated["A"].value * aggregated["B"].value
    ) / abs(aggregated["C"].value)
    estimates = tuple(
        invert_temperature(aggregated[c], levels, clamp=clamp) for c in COEFFICIENTS
    )
    t = responses.x0.t_ns
    dt = t[1] - t[0] if len(t) > 1 else 0.0
    return EstimateReport(estimates, tuple(pair_estimates), float(consistency),
                          quadratures, (float(t[0]), float(t[-1] + dt)), seed)
