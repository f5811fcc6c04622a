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

The nine difference pairs are the rows of the (9, 6) matrices ``_PAIR_D``
and ``_PAIR_U``.  One ``deming_fit`` call fits the pair rows they make
(``_pair_rows``), bootstrap included; a degenerate row raises naming its
pair.  ``errorlab``'s repeated draws read the pairs' moments off a sampled
scatter (``_pair_moments``) and take the same Deming rule.
From the pair slopes on, the estimator and the repeated draws share one
path: ``_aggregate`` for the coefficients, ``_checked_inverse`` for the
temperatures.

The records hold these arrays as computed: ``EstimateReport.pairs`` is the
nine-row ``DemingFit`` in ``DIFFERENCE_PAIRS`` order, tagged only by
``as_dict``; a ``TemperatureEstimate`` holds one aggregated slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .constants import GHZ_TO_MK, _check_kind, boltzmann_exponent
from .hilbert import LevelEnergies
from .pulses import SEQUENCE_LABELS
from .readout import IQTrace

T_BRACKET_MK = (1.0, 2000.0)
T_GUARD_MK = (0.1, 10000.0)

COEFFICIENTS = ("A", "B", "C")


class DegenerateDataError(RuntimeError):
    """Difference series carries no usable slope information.  ``row``, the
    leading-axes index of the degenerate row in a stack of rows, prefixes
    the message; ``reason`` is the message without it."""

    def __init__(self, reason: str, row: Tuple[int, ...] = ()):
        super().__init__(f"row {', '.join(map(str, row))}: {reason}" if row else reason)
        self.reason, self.row = reason, row


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
            if not (np.all(np.isfinite(trace.i_vals)) and np.all(np.isfinite(trace.q_vals))):
                raise ValueError(f"trace {name} has a non-finite sample")

    def as_dict(self) -> Dict[str, IQTrace]:
        return {name: getattr(self, name) for name in SEQUENCE_LABELS}

    def iq(self) -> np.ndarray:
        """The six traces stacked as (6, 2, m): slots in as_dict order, I over Q."""
        return np.stack([[tr.i_vals, tr.q_vals] for tr in self.as_dict().values()])

    @classmethod
    def from_dict(cls, traces: Dict[str, IQTrace]) -> "SequenceResponses":
        try:
            return cls(**{k: traces[k] for k in SEQUENCE_LABELS})
        except KeyError as exc:
            raise ValueError(f"missing sequence trace {exc}") from exc


@dataclass(frozen=True)
class DemingFit:
    """Closed-form errors-in-variables straight-line fits.  Each field has
    the rows' leading shape (scalars for one row); ``ci95`` adds a trailing
    (low, high) axis."""

    slope: np.ndarray
    intercept: np.ndarray
    ci95: np.ndarray
    residual_rms: np.ndarray

    def __post_init__(self):
        if np.any(self.residual_rms < 0):
            raise ValueError("residual_rms must be non-negative")


@dataclass(frozen=True)
class TemperatureEstimate:
    """One coefficient's aggregated slope and the temperature it inverts to."""

    coefficient: str
    slope: float
    t_mk: float
    t_ci95_mk: Tuple[float, float]

    def __post_init__(self):
        if self.coefficient not in COEFFICIENTS:
            raise ValueError(f"coefficient must be one of {COEFFICIENTS}")
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


# the nine pairs in DIFFERENCE_PAIRS order: U and D (9, 6), +1 and -1 at the slots of
# each pair's numerator and denominator, tags, and the names error messages give them
_PAIR_U, _PAIR_D = (
    np.array([[(s == a) - (s == b) for s in SEQUENCE_LABELS] for a, b in diffs], dtype=float)
    for diffs in zip(*(pair[:2] for c in COEFFICIENTS for pair in DIFFERENCE_PAIRS[c])))
_PAIR_TAGS = tuple((c, direction) for c in COEFFICIENTS for _, _, direction in DIFFERENCE_PAIRS[c])
_PAIR_NAMES = tuple(f"{c}/{d} pair ({na} - {nb} against {da} - {db})" for c in COEFFICIENTS
                    for (na, nb), (da, db), d in DIFFERENCE_PAIRS[c])


def _pair_rows(iq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and y rows, each (..., 9, 2m), of the nine difference pairs of six
    traces stacked as (..., 6, 2, m) (SequenceResponses.iq order), each
    trace's m I samples then its m Q samples; the y row against the x row
    has the pair's coefficient as its slope."""
    points = iq.reshape(iq.shape[:-2] + (-1,))
    return _PAIR_D @ points, _PAIR_U @ points


def _pair_moments(scatter: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sxx, syy and sxy, each (r, 9), of the nine pairs from the scatters
    (r, 6, 6) of six traces' fit points, in the scale of the scatters."""
    return tuple(np.einsum("ki,rij,kj->rk", x, scatter, y)
                 for x, y in ((_PAIR_D, _PAIR_D), (_PAIR_U, _PAIR_U), (_PAIR_D, _PAIR_U)))


def _check_fit_inputs(n_points: int) -> None:
    """Raise ValueError unless a fit has 3 points or more."""
    if n_points < 3:
        raise ValueError("need at least 3 paired points")


# resamples drawn and reduced per block: bounds the b x n index and count
# arrays to a fixed size whatever the number of resamples
_BOOTSTRAP_BLOCK = 64


def _deming_rule(sxx, syy, sxy, single):
    """Closed-form Deming slopes, equal noise on both axes, from the second
    central moments (scalars or arrays), and the mask of degenerate rows,
    whose slopes are meaningless.

    A row is degenerate when ``single`` flags it (its x or y takes a single
    value, tested exactly rather than through a variance that rounding
    leaves near zero) or when its covariance is exactly zero.  Every Deming
    fit in the package decides degeneracy here.
    """
    term = syy - sxx
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (term + np.sqrt(term * term + 4.0 * sxy * sxy)) / (2.0 * sxy)
    return slope, single | (sxy == 0.0)


def _row_moments(xs: np.ndarray, ys: np.ndarray):
    """Means and second central moments (xb, yb, sxx, syy, sxy) of paired
    samples along the last axis; one row or a stack of rows, reduced in the
    same order either way, so a row's moments do not depend on the stack."""
    xb = xs.mean(axis=-1, keepdims=True)
    yb = ys.mean(axis=-1, keepdims=True)
    xc, yc = xs - xb, ys - yb
    return (xb[..., 0], yb[..., 0], np.mean(xc * xc, axis=-1), np.mean(yc * yc, axis=-1),
            np.mean(xc * yc, axis=-1))


def _single_valued(v: np.ndarray) -> np.ndarray:
    """Rows taking one value, compared exactly."""
    return v.min(axis=-1) == v.max(axis=-1)


def deming_slope(xs: np.ndarray, ys: np.ndarray) -> Tuple[float, float]:
    """Closed-form Deming slope and intercept, equal noise on both axes, of
    one row or of a stack of rows (..., n) on a shared sample axis; each
    result has the rows' leading shape, scalars for one row.

    Raises DegenerateDataError, naming the cause and, in a stack, the index
    of the first row that ``_deming_rule`` flags: x or y takes a single
    value, or the covariance is exactly zero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        sizes = " and ".join("x".join(map(str, v.shape)) for v in (xs, ys))
        raise ValueError(f"x and y differ in length: {sizes} points")
    _check_fit_inputs(xs.shape[-1] if xs.ndim else 0)
    single_x, single_y = _single_valued(xs), _single_valued(ys)
    xb, yb, sxx, syy, sxy = _row_moments(xs, ys)
    slope, degenerate = _deming_rule(sxx, syy, sxy, single_x | single_y)
    if np.any(degenerate):
        row = tuple(np.argwhere(degenerate)[0].tolist())
        cause = ("x series takes a single value" if single_x[row] else
                 "y series takes a single value" if single_y[row] else
                 "x and y series are uncorrelated")
        raise DegenerateDataError(f"{cause}; slope undefined", row)
    return slope, yb - slope * xb


def _bootstrap_slopes(xs: np.ndarray, ys: np.ndarray, n_bootstrap: int,
                      gen: np.random.Generator) -> List[np.ndarray]:
    """Deming slopes of the non-degenerate resamples of each of the k rows
    of ``xs`` and ``ys`` (each (k, n), on a shared sample axis), in draw
    order: one array per row.

    A resample is a row of counts, how often each of the n samples was
    drawn, and one resample serves every row.  Its Deming slopes need only
    the five moments of each row's resampled points; with each row centred
    on its full-sample mean those are one count matrix times the n x 5k
    table [x, y, x^2, y^2, xy] of all rows, divided by n.  Resamples are
    drawn and reduced in blocks of ``_BOOTSTRAP_BLOCK``, which keeps memory
    flat in ``n_bootstrap``; a block's ``integers(0, n, size=(b, n))`` draws
    the same indices as b successive size-n draws, so the slopes do not
    depend on the block size.
    """
    k, n = xs.shape
    xc = xs - xs.mean(axis=-1, keepdims=True)
    yc = ys - ys.mean(axis=-1, keepdims=True)
    basis = np.ascontiguousarray(np.concatenate([xc, yc, xc * xc, yc * yc, xc * yc]).T)
    # a resample that draws one sample n times is single-valued in every row;
    # in a row with repeated values, draws of several samples can be too
    repeating = [(row, v[row]) for row in range(k) for v in (xs, ys)
                 if np.unique(v[row]).size < n]
    slopes = np.empty((n_bootstrap, k))
    degenerate = np.empty((n_bootstrap, k), dtype=bool)
    for start in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        b = min(_BOOTSTRAP_BLOCK, n_bootstrap - start)
        idx = gen.integers(0, n, size=(b, n))
        counts = np.bincount((idx + n * np.arange(b)[:, None]).ravel(),
                             minlength=b * n).reshape(b, n)
        mx, my, mxx, myy, mxy = (counts @ basis).reshape(b, 5, k).transpose(1, 0, 2) / n
        single = np.repeat((counts.max(axis=1) == n)[:, None], k, axis=1)
        for row, v in repeating:
            single[:, row] |= _single_valued(v[idx])
        block = slice(start, start + b)
        slopes[block], degenerate[block] = _deming_rule(
            mxx - mx ** 2, myy - my ** 2, mxy - mx * my, single)
    return [s[~d] for s, d in zip(slopes.T, degenerate.T)]


def deming_fit(xs, ys, *, n_bootstrap: int = 1000, rng=None) -> DemingFit:
    """Deming fits of one row or a stack of rows (..., n), in one
    ``deming_slope`` call, with percentile bootstrap 95% CIs on the slopes.

    ``rng`` seeds the bootstrap (int, Generator, or None); with
    ``n_bootstrap = 0`` each CI degenerates to the point value.  One
    resample of the sample axis serves every row (``_bootstrap_slopes``).
    Degenerate resamples, as ``deming_slope`` defines them, are skipped; a
    row keeping none, or fewer than ``n_bootstrap // 2``, raises
    DegenerateDataError naming the first such row in a stack.
    """
    _check_kind("n_bootstrap", int, n_bootstrap)  # the config loader's rule
    if n_bootstrap < 0:
        raise ValueError(f"n_bootstrap must be non-negative, got {n_bootstrap}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = deming_slope(xs, ys)
    b, a = slope[..., None], intercept[..., None]
    resid = (ys - a - b * xs) / np.sqrt(1.0 + b * b)
    rms = np.sqrt(np.mean(resid ** 2, axis=-1))
    bounds = np.stack([slope, slope], axis=-1)
    if n_bootstrap > 0:
        n = xs.shape[-1]
        kept = _bootstrap_slopes(xs.reshape(-1, n), ys.reshape(-1, n), n_bootstrap,
                                 np.random.default_rng(rng))
        short = [len(k) < max(1, n_bootstrap // 2) for k in kept]
        if any(short):
            row = np.unravel_index(short.index(True), slope.shape)
            raise DegenerateDataError("bootstrap resamples mostly degenerate",
                                      tuple(map(int, row)))
        bounds = np.reshape([np.percentile(k, [2.5, 97.5]) for k in kept], bounds.shape)
    ci = np.stack([np.minimum(bounds[..., 0], slope), np.maximum(bounds[..., 1], slope)], -1)
    return DemingFit(slope, intercept, ci, rms)


def _fit_pairs(fit, iq: np.ndarray, **kwargs):
    """``fit(xs, ys, **kwargs)``, ``deming_fit`` or ``deming_slope``, of the nine
    pair rows of traces stacked as (..., 6, 2, m); a degenerate row raises
    naming its pair, whatever the leading axes."""
    try:
        return fit(*_pair_rows(iq), **kwargs)
    except DegenerateDataError as exc:
        if not exc.row:
            raise
        raise DegenerateDataError(f"{_PAIR_NAMES[exc.row[-1]]}: {exc.reason}") from None


def _frequencies(levels: Union[LevelEnergies, Tuple[float, float]]) -> Tuple[float, float]:
    if isinstance(levels, LevelEnergies):
        return levels.f_ge_ghz, levels.f_gf_ghz
    f_ge, f_gf = levels
    if f_ge <= 0 or f_gf <= 0:
        raise ValueError("transition frequencies must be positive")
    return float(f_ge), float(f_gf)


def coefficient_vs_temperature(levels, t_mk, which: str):
    """Thermal-state value of coefficient ``which`` at temperature ``t_mk``
    (a scalar or an array of temperatures).

    ``levels`` is a LevelEnergies or a bare (f_ge_ghz, f_gf_ghz) pair (the
    latter admits degenerate frequencies for algebra checks).
    """
    t_mk = np.asarray(t_mk, dtype=float)
    if not np.all((T_GUARD_MK[0] <= t_mk) & (t_mk <= T_GUARD_MK[1])):
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


def _invert_coefficient(levels, which: str, values, clamp) -> np.ndarray:
    """Temperatures (mK) at which coefficient ``which`` takes ``values`` (a
    scalar or an array; the result has its shape).  An out-of-range value
    is pinned to the bracket edge where ``clamp`` (a bool or a mask) is set."""
    values = np.asarray(values, dtype=float)
    t_lo, t_hi = T_BRACKET_MK
    lo, hi = attainable_range(levels, which)
    v_lo, v_hi = (hi, lo) if which == "A" else (lo, hi)  # A falls with T, B and C rise
    outside = ~((lo <= values) & (values <= hi))  # NaN counts as outside
    unclamped = outside & ~np.asarray(clamp)
    if np.any(unclamped):
        raise SlopeOutOfRangeError(
            f"slope {values[unclamped].flat[0]:.6g} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of coefficient {which} over {T_BRACKET_MK} mK; "
            f"enable clamping to pin to the bracket edge"
        )
    values = np.minimum(np.maximum(values, lo), hi)
    t = np.where(values == v_lo, t_lo, t_hi)
    todo = np.flatnonzero((values != v_lo) & (values != v_hi))
    # With e = exp(-h f_ge / k_B T) and r = f_gf / f_ge > 1, C = (e - e^r) / (1 - e^r)
    # and B = (e - e^r) / (1 - e) make e a root of g(e) = a e^r - b e + c:
    # (a, b, c) = (1 - C, 1, C), or (1, 1 + B, B); A goes through 1 - A = C.
    # On [0, 1] g is convex with g(0) = c > 0 and g(1) = 0, so Newton's method
    # from e = 0 rises monotonically to the physical root e* < 1; a value has
    # converged when a step no longer raises its e.  ``np.maximum`` then holds
    # it in place, and its step is the same at every pass, so all values are
    # stepped until none rises.
    # e^(r-1) is taken with the C library's scalar pow: numpy's vectorised
    # power rounds differently on some SIMD paths, and the last ulp decides
    # where the iteration stops.  Rounding can put T ~1e-11 mK past the
    # bracket, so T is clipped to it.
    f_ge, f_gf = _frequencies(levels)
    r = f_gf / f_ge
    v = values.ravel()[todo]
    if which == "A":
        v = 1.0 - v
    ones = np.ones_like(v)
    a, b, c = (ones, 1.0 + v, v) if which == "B" else (1.0 - v, ones, v)
    e = np.zeros_like(v)
    for _ in range(100):
        e_r1 = np.array([x ** (r - 1.0) for x in e.tolist()])
        e_next = np.maximum(e, e - (a * e_r1 * e - b * e + c) / (a * r * e_r1 - b))
        if np.all(e_next <= e):  # False for NaN, which runs into the step cap
            break
        e = e_next
    else:
        raise RuntimeError("Newton iteration for exp(-h f_ge / k_B T) not converged in 100 steps")
    t.flat[todo] = np.minimum(np.maximum(GHZ_TO_MK * f_ge / -np.log(e), t_lo), t_hi)
    return t


def _checked_inverse(levels, which: str, values, clamp) -> np.ndarray:
    """``_invert_coefficient`` plus the check that every unclamped
    temperature reproduces its value to 1e-10."""
    t = _invert_coefficient(levels, which, values, clamp)
    checked = ~np.broadcast_to(clamp, np.shape(values))
    residual = np.abs(coefficient_vs_temperature(levels, t, which) - values)[checked]
    if np.any(residual > 1e-10):
        raise RuntimeError(f"inversion residual {np.max(residual):.2e} above 1e-10")
    return t


def invert_temperature(coefficient: str, value: float, ci95: Tuple[float, float], levels,
                       clamp: bool = False) -> TemperatureEstimate:
    """Temperature whose thermal coefficient equals the slope ``value``, with
    the temperature interval of its slope CI ``ci95``.

    Newton's method in e = exp(-h f_ge / k_B T) on the convex equation of B
    or C (1 - A = C), started at e = 0, over the 1 mK - 2 K bracket.  One
    elementwise call inverts the point value and both slope CI bounds, so a
    bound equal to the point gets its temperature.  Bounds past the bracket
    are clamped to it; ``clamp=True`` pins an out-of-range point estimate to
    the bracket edge instead of raising.
    """
    if not ci95[0] <= value <= ci95[1]:
        raise ValueError("ci95 must contain the point value")
    t, *t_ci = _checked_inverse(levels, coefficient, [value, *ci95],
                                np.array([clamp, True, True])).tolist()
    return TemperatureEstimate(coefficient, value, t, tuple(sorted(t_ci)))


@dataclass(frozen=True)
class EstimateReport:
    """Full protocol output: per-coefficient temperatures, the nine pair
    fits as one ``DemingFit`` in ``DIFFERENCE_PAIRS`` row order, and the
    C = A*B consistency diagnostic."""

    estimates: Tuple[TemperatureEstimate, TemperatureEstimate, TemperatureEstimate]
    pairs: DemingFit
    consistency: float
    window_ns: Tuple[float, float]
    seed: Optional[int] = None

    def temperature(self, coefficient: str) -> TemperatureEstimate:
        for est in self.estimates:
            if est.coefficient == coefficient:
                return est
        raise KeyError(coefficient)

    def as_dict(self) -> dict:
        out = {}
        for est in self.estimates:
            c = est.coefficient
            out[f"T_{c}_mK"] = est.t_mk
            out[f"T_{c}_ci95_mK"] = list(est.t_ci95_mk)
            out[f"lambda_{c}"] = est.slope
        p = self.pairs
        out["pair_slopes"] = [
            {"coefficient": c, "direction": d, "value": v, "ci95": ci, "residual_rms": rms,
             "intercept": a}
            for (c, d), v, ci, rms, a in zip(_PAIR_TAGS, p.slope.tolist(), p.ci95.tolist(),
                                             p.residual_rms.tolist(), p.intercept.tolist())
        ]
        out["consistency_C_vs_AB"] = self.consistency
        out["window_ns"] = list(self.window_ns)
        out["seed"] = self.seed
        return out


def _aggregate(slopes, halfwidths) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficient slopes and standard errors (..., 3) from the pair slopes
    and 95% CI half-widths (..., 3, 3), as one weighted mean: inverse squared
    half-widths for a coefficient whose three pair CIs all have a width
    (standard error 1 / (1.96 sqrt(sum of weights)), pairs as independent),
    unit weights otherwise (the standard error of its three slopes)."""
    weighted = np.all(halfwidths > 0, axis=-1)
    w = np.divide(1.0, halfwidths ** 2, out=np.ones_like(halfwidths), where=weighted[..., None])
    total = np.sum(w, axis=-1)
    se = np.where(weighted, 1.0 / (1.96 * np.sqrt(total)),
                  slopes.std(axis=-1, ddof=1) / np.sqrt(3))
    return np.sum(w * slopes, axis=-1) / total, se


def estimate_temperature(
    responses: SequenceResponses,
    levels,
    n_bootstrap: int = 0,
    seed: Optional[int] = None,
    clamp: bool = False,
) -> EstimateReport:
    """Run the estimator on windowed sequence responses.

    Fits all nine difference pairs (three redundant directions per
    coefficient) in one ``deming_fit`` call, each pair's I and Q samples as
    one cloud with variance ratio 1 (both axes are differences of traces
    taken with the same averaging, so they carry the same noise), aggregates
    each coefficient's slopes (inverse-variance weights when bootstrap CIs
    are available, plain mean otherwise), and inverts A, B, C to temperatures.
    The nine pairs share their sample instants, so with ``n_bootstrap`` > 0
    each resample of those instants, drawn from
    ``np.random.default_rng(seed)``, serves all nine pair CIs.
    """
    fit = _fit_pairs(deming_fit, responses.iq(), n_bootstrap=n_bootstrap, rng=seed)
    value, se = _aggregate(fit.slope.reshape(3, 3),
                           0.5 * (fit.ci95[:, 1] - fit.ci95[:, 0]).reshape(3, 3))
    lo, hi = np.minimum(value - 1.96 * se, value), np.maximum(value + 1.96 * se, value)
    consistency = float(abs(value[2] - value[0] * value[1]) / abs(value[2]))
    estimates = tuple(invert_temperature(c, v, ci, levels, clamp) for c, v, ci in zip(
        COEFFICIENTS, value.tolist(), zip(lo.tolist(), hi.tolist())))
    t = responses.x0.t_ns
    dt = t[1] - t[0] if len(t) > 1 else 0.0
    return EstimateReport(estimates, fit, consistency, (float(t[0]), float(t[-1] + dt)), seed)
