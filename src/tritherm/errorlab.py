"""Error studies: slope-fit bias Monte Carlo, temperature discrepancy curves,
and repeated-measurement statistics.

The bias study regenerates the known systematic of straight-line fits on
noisy difference data: with noise on both axes the fitted slope sits below
the true one, the shortfall growing linearly with the slope.  Mapping that
bias through the temperature inversion gives the expected per-coefficient
discrepancies (A overestimates by a few mK near 160 mK, B and C slightly
underestimate).

Fits here default to ordinary least squares, which reproduces the documented
attenuation exactly (factor S_xx/(S_xx + sigma^2)); a symmetric Deming fit
with delta = 1 is available for comparison and is mean-unbiased on this
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .constants import TWO_PI
from .readout import add_noise
from .thermometry import (
    COEFFICIENTS,
    DegenerateDataError,
    SequenceResponses,
    SlopeEstimate,
    SlopeOutOfRangeError,
    coefficient_vs_temperature,
    deming_slope,
    estimate_temperature,
    invert_temperature,
)

DEFAULT_IF_CYCLES_PER_SAMPLE = 0.05  # 50 MHz at 1 ns sampling


@dataclass(frozen=True)
class MonteCarloSpec:
    """Synthetic slope-fit experiment: collinear points on a +-x_span cloud,
    Gaussian noise on both axes.

    ``n_points`` counts fit points per experiment (window samples times
    quadratures).  The abscissa is sinusoidal by default, mirroring the IF
    structure of real windowed difference traces; "uniform" switches to an
    even grid for sensitivity checks.
    """

    true_slope: float
    n_experiments: int = 1000
    x_span: float = 0.042
    noise_sigma: float = 0.002
    n_points: int = 700
    seed: Optional[int] = None
    abscissa: str = "sinusoid"
    fit_method: str = "least_squares"

    def __post_init__(self):
        if self.n_experiments < 100:
            raise ValueError("n_experiments must be at least 100")
        if self.x_span <= 0:
            raise ValueError("x_span must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if self.abscissa not in ("sinusoid", "uniform"):
            raise ValueError("abscissa must be 'sinusoid' or 'uniform'")
        if self.fit_method not in ("least_squares", "deming"):
            raise ValueError("fit_method must be 'least_squares' or 'deming'")

    def design_points(self) -> np.ndarray:
        if self.abscissa == "uniform":
            return np.linspace(-self.x_span, self.x_span, self.n_points)
        half = self.n_points // 2
        t = np.arange(half, dtype=float)
        phase = TWO_PI * DEFAULT_IF_CYCLES_PER_SAMPLE * t
        pts = np.concatenate([np.cos(phase), np.sin(phase)])
        return self.x_span * pts[: self.n_points]


@dataclass(frozen=True)
class MonteCarloReport:
    """Mean fitted slope and the 95% CI of that mean, per true slope."""

    lambda_grid: np.ndarray
    mean_fit: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    spec: MonteCarloSpec
    n_failures: int = 0

    def __post_init__(self):
        if not (np.all(self.ci_low <= self.mean_fit + 1e-15)
                and np.all(self.mean_fit <= self.ci_high + 1e-15)):
            raise ValueError("CI must bracket the mean pointwise")

    def bias(self) -> np.ndarray:
        return self.mean_fit - self.lambda_grid

    def fitted_slope_at(self, true_slope: float) -> float:
        """Interpolated mean fitted slope at a true slope inside the grid."""
        lg = self.lambda_grid
        if not lg[0] <= true_slope <= lg[-1]:
            raise ValueError(f"true slope {true_slope} outside study grid "
                             f"[{lg[0]}, {lg[-1]}]")
        return float(np.interp(true_slope, lg, self.mean_fit))


def _fit_slope(xs: np.ndarray, ys: np.ndarray, method: str) -> float:
    if method == "deming":
        slope, _ = deming_slope(xs, ys, delta=1.0)
        return slope
    if xs.min() == xs.max():
        raise DegenerateDataError("x series takes a single value")
    xc = xs - xs.mean()
    return float(np.mean(xc * (ys - ys.mean())) / np.mean(xc ** 2))


def slope_bias_study(spec: MonteCarloSpec, lambda_grid=None) -> MonteCarloReport:
    """Fit ``n_experiments`` noisy collinear clouds per true slope.

    Reports the mean fitted slope with the 95% CI of the mean (normal
    approximation over experiments).  Degenerate fits are counted, not fatal;
    an empty or non-increasing ``lambda_grid`` raises ValueError.
    """
    if lambda_grid is None:
        lambda_grid = np.array([spec.true_slope])
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0 or np.any(np.diff(lambda_grid) <= 0):
        raise ValueError("lambda grid must be non-empty and strictly increasing")
    rng = np.random.default_rng(spec.seed)
    x0 = spec.design_points()
    means = np.empty(len(lambda_grid))
    ci_lo = np.empty(len(lambda_grid))
    ci_hi = np.empty(len(lambda_grid))
    failures = 0
    for j, lam in enumerate(lambda_grid):
        y0 = lam * x0
        fits = []
        for _ in range(spec.n_experiments):
            xs = x0 + rng.normal(0.0, spec.noise_sigma, size=len(x0))
            ys = y0 + rng.normal(0.0, spec.noise_sigma, size=len(x0))
            try:
                fits.append(_fit_slope(xs, ys, spec.fit_method))
            except DegenerateDataError:
                failures += 1
        fits = np.asarray(fits)
        m = fits.mean()
        sem = fits.std(ddof=1) / np.sqrt(len(fits))
        means[j] = m
        ci_lo[j] = m - 1.96 * sem
        ci_hi[j] = m + 1.96 * sem
    return MonteCarloReport(lambda_grid, means, ci_lo, ci_hi, spec, failures)


@dataclass(frozen=True)
class DiscrepancyCurves:
    """Predicted estimator offsets Delta T(T) per coefficient."""

    t_mk: np.ndarray
    dt_a_mk: np.ndarray
    dt_b_mk: np.ndarray
    dt_c_mk: np.ndarray
    n_skipped: int = 0

    def at(self, coefficient: str, t_mk: float) -> float:
        curve = {"A": self.dt_a_mk, "B": self.dt_b_mk, "C": self.dt_c_mk}[coefficient]
        return float(np.interp(t_mk, self.t_mk, curve))


def temperature_discrepancy(report: MonteCarloReport, levels,
                            t_grid=None) -> DiscrepancyCurves:
    """Map the slope bias through the inversion: at each bath temperature,
    evaluate the coefficient, look up its mean fitted value, invert, and
    record the offset.  Out-of-range fitted slopes are skipped and counted.
    """
    if t_grid is None:
        t_grid = np.arange(50.0, 250.1, 5.0)
    t_grid = np.asarray(t_grid, dtype=float)
    curves = {c: np.full(len(t_grid), np.nan) for c in COEFFICIENTS}
    skipped = 0
    for i, t in enumerate(t_grid):
        for c in COEFFICIENTS:
            lam = coefficient_vs_temperature(levels, t, c)
            try:
                lam_fit = report.fitted_slope_at(lam)
                est = invert_temperature(
                    SlopeEstimate(c, None, lam_fit, (lam_fit, lam_fit), 0.0), levels
                )
            except (ValueError, SlopeOutOfRangeError):
                skipped += 1
                continue
            curves[c][i] = est.t_mk - t
    return DiscrepancyCurves(t_grid, curves["A"], curves["B"], curves["C"], skipped)


@dataclass(frozen=True)
class RepeatedStats:
    """Per-coefficient temperature samples over repeated noisy estimates."""

    t_a_mk: np.ndarray
    t_b_mk: np.ndarray
    t_c_mk: np.ndarray
    noise_sigma: float
    seed: Optional[int]

    def samples(self, coefficient: str) -> np.ndarray:
        return {"A": self.t_a_mk, "B": self.t_b_mk, "C": self.t_c_mk}[coefficient]

    def mean(self, coefficient: str) -> float:
        return float(self.samples(coefficient).mean())

    def std(self, coefficient: str) -> float:
        return float(self.samples(coefficient).std(ddof=1))

    def cdf(self, coefficient: str) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF support points and levels (right-continuous)."""
        vals = np.sort(self.samples(coefficient))
        return vals, np.arange(1, len(vals) + 1) / len(vals)

    def as_dict(self) -> dict:
        out = {"noise_sigma": self.noise_sigma, "seed": self.seed,
               "n_runs": len(self.t_a_mk)}
        for c in COEFFICIENTS:
            out[f"T_{c}_mean_mK"] = self.mean(c)
            out[f"T_{c}_std_mK"] = self.std(c)
        return out


def repeated_measurement_stats(
    responses: SequenceResponses,
    levels,
    n_runs: int = 100,
    noise_sigma: float = 0.002,
    seed: Optional[int] = None,
    quadratures: str = "IQ",
    delta: float = 1.0,
    clamp: bool = False,
) -> RepeatedStats:
    """Re-estimate temperature ``n_runs`` times with fresh noise draws on one
    noiseless set of windowed responses.

    Noise is added per sample and quadrature on the analysis window (the
    estimator never sees samples outside it).  Deterministic under a fixed
    seed; bootstrap CIs are skipped since only the point estimates feed the
    statistics.
    """
    rng = np.random.default_rng(seed)
    t_vals: Dict[str, list] = {c: [] for c in COEFFICIENTS}
    for _ in range(n_runs):
        noisy = SequenceResponses.from_dict(
            {name: add_noise(tr, noise_sigma, 1, rng)
             for name, tr in responses.as_dict().items()})
        report = estimate_temperature(noisy, levels, delta=delta,
                                      quadratures=quadratures, n_bootstrap=0,
                                      clamp=clamp)
        for est in report.estimates:
            t_vals[est.source_coefficient].append(est.t_mk)
    return RepeatedStats(np.array(t_vals["A"]), np.array(t_vals["B"]),
                         np.array(t_vals["C"]), noise_sigma, seed)
