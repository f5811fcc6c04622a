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
(noise variance ratio 1) is available for comparison and is mean-unbiased on
this geometry.

Neither study builds its noisy data.  A fit reads only second central
moments, and for Gaussian noise the scatter of m noisy rows has an exact
law, which one sampler draws (``_sample_scatter``).  A bias experiment is
the two rows x and slope * x, whose 2 x 2 scatter takes 4 + 2 + 1 = 7
draws (n >= 5), where an explicit cloud needs 2n.  A repeated draw's nine
pair fits read the 6 x 6 scatter of the six traces' fit points through
``thermometry._pair_moments``, 36 + 6 + 15 = 57 draws (n >= 13), where
explicit traces need 6n.  The working set is a few (draws, m, m) arrays.

Both study records hold one column per coefficient, in COEFFICIENTS order:
``RepeatedStats.t_mk`` is (n_runs, 3) and ``DiscrepancyCurves.dt_mk`` (n_t, 3).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import _field_types
from .constants import TWO_PI, _check_kind
from .thermometry import (
    COEFFICIENTS,
    DegenerateDataError,
    SequenceResponses,
    _PAIR_NAMES,
    _aggregate,
    _check_fit_inputs,
    _checked_inverse,
    _deming_rule,
    _fit_pairs,
    _pair_moments,
    attainable_range,
    coefficient_vs_temperature,
    deming_slope,
)

DEFAULT_IF_CYCLES_PER_SAMPLE = 0.05  # 50 MHz at 1 ns sampling

@dataclass(frozen=True)
class MonteCarloSpec:
    """Synthetic slope-fit experiment: collinear points on a +-x_span cloud,
    Gaussian noise on both axes.

    ``n_points`` counts fit points per experiment (window samples, I then
    Q), x on an IF sinusoid as in real windowed difference traces.
    """

    true_slope: float = 0.8834
    n_experiments: int = 1000
    x_span: float = 0.042
    noise_sigma: float = 0.002
    n_points: int = 700
    seed: Optional[int] = None
    fit_method: str = "least_squares"

    def __post_init__(self):
        for name in ("true_slope", "n_experiments", "x_span", "noise_sigma", "n_points"):
            _check_kind(name, _field_types(MonteCarloSpec)[name], getattr(self, name))
        if self.seed is not None:  # numpy's SeedSequence takes no other
            _check_kind("seed", int, self.seed)
            if self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_experiments < 100:
            raise ValueError("n_experiments must be at least 100")
        if self.x_span <= 0:
            raise ValueError("x_span must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if self.fit_method not in ("least_squares", "deming"):
            raise ValueError("fit_method must be 'least_squares' or 'deming'")

    def design_points(self) -> np.ndarray:
        half = (self.n_points + 1) // 2
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
    n_failures: int = 0

    def __post_init__(self):
        if not (np.all(self.ci_low <= self.mean_fit + 1e-15)
                and np.all(self.mean_fit <= self.ci_high + 1e-15)):
            raise ValueError("CI must bracket the mean pointwise")

    def fitted_slope_at(self, true_slope: float) -> float:
        """Interpolated mean fitted slope at a true slope inside the grid."""
        lg = self.lambda_grid
        if not lg[0] <= true_slope <= lg[-1]:
            raise ValueError(f"true slope {true_slope} outside study grid "
                             f"[{lg[0]}, {lg[-1]}]")
        return float(np.interp(true_slope, lg, self.mean_fit))


def _fit_slope(sxx, syy, sxy, method: str) -> Tuple[np.ndarray, np.ndarray]:
    """Slopes from arrays of second central moments and a mask of the
    degenerate experiments, whose slopes are meaningless.

    A least-squares fit is degenerate when sxx is exactly zero; a Deming fit
    where ``_deming_rule`` flags it, with an exactly-zero sxx or syy standing
    for a single-valued axis.  Sampled moments come from no row of values,
    so a single-valued axis shows only as an exactly-zero moment.  The
    Deming fit is the symmetric one, noise variance ratio 1.
    """
    if method == "deming":
        return _deming_rule(sxx, syy, sxy, (sxx == 0.0) | (syy == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return sxy / sxx, sxx == 0.0


def _sample_scatter(rng, points: np.ndarray, sigma: float, size: int) -> np.ndarray:
    """n M, (size, m, m), for ``size`` noisy copies of m rows of n points
    (``points``, (m, n)), noise iid N(0, sigma^2) per point, M the scatter of
    the centred noisy rows, drawn from its exact law without drawing the
    copies.

    With Q (n x k, k = min(m, n - 1)) columns 1.. of the QR of [1, Xc^T],
    orthogonal to 1 and spanning the centred clean rows Xc whatever their
    rank,

        n M = (A + sigma G)(A + sigma G)^T + sigma^2 W,   A = Xc Q,

    G (m x k) iid N(0, 1) and W ~ W_m(nu, I) the scatter of the other
    nu = n - 1 - k directions orthogonal to 1: L L^T for nu >= m, L the
    Bartlett factor, lower triangular with sqrt(chi2(nu - i)) at (i, i) and
    N(0, 1) below (Bartlett 1933); else Z Z^T, Z (m x nu) iid N(0, 1).

    Draw order: standard_normal(size=(size, m, k)) for G; then, for nu >= m,
    chisquare(nu - arange(m), size=(size, m)) for L's squared diagonal and
    standard_normal(size=(size, m (m - 1) / 2)) for its entries below, row by
    row; else standard_normal(size=(size, m, nu)) for Z.
    """
    m, n = points.shape
    xc = points - points.mean(axis=-1, keepdims=True)
    q = np.linalg.qr(np.column_stack([np.ones(n), xc.T]))[0][:, 1:]
    k = q.shape[1]
    nu = n - 1 - k
    # n M = C C^T with C = [A + sigma G, sigma L] (sigma Z for nu < m)
    c = np.zeros((size, m, k + min(nu, m)))
    c[..., :k] = xc @ q + sigma * rng.standard_normal(size=(size, m, k))
    if nu >= m:
        c[..., range(m), range(k, k + m)] = sigma * np.sqrt(
            rng.chisquare(nu - np.arange(m), (size, m)))
        below = np.tril_indices(m, -1)
        c[..., below[0], k + below[1]] = sigma * rng.standard_normal(size=(size, len(below[0])))
    else:
        c[..., k:] = sigma * rng.standard_normal(size=(size, m, nu))
    return c @ c.transpose(0, 2, 1)


def slope_bias_study(spec: MonteCarloSpec, lambda_grid=None) -> MonteCarloReport:
    """Fit ``n_experiments`` noisy collinear clouds per true slope.

    Each experiment's second moments are read off the 2 x 2 scatter of the
    rows (x0, slope * x0), sampled from its exact Gaussian law
    (``_sample_scatter``), one call per slope point in grid order on one
    generator seeded with ``spec.seed``, then fitted with ``_fit_slope``.
    Reports the mean fitted slope with the 95% CI of the mean (normal
    approximation over experiments).  Degenerate fits are counted, not fatal,
    unless fewer than two fits survive at a slope, which raises
    DegenerateDataError; an empty, non-finite or non-increasing
    ``lambda_grid`` raises ValueError.
    """
    if lambda_grid is None:
        lambda_grid = np.array([spec.true_slope])
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if (lambda_grid.size == 0 or not np.all(np.isfinite(lambda_grid))
            or np.any(np.diff(lambda_grid) <= 0)):
        raise ValueError("lambda grid must be non-empty, finite and strictly increasing")
    rng = np.random.default_rng(spec.seed)
    x0 = spec.design_points()
    means, half = np.empty((2, len(lambda_grid)))
    failures = 0
    for j, lam in enumerate(lambda_grid):
        scatter = _sample_scatter(rng, np.stack([x0, lam * x0]), spec.noise_sigma,
                                  spec.n_experiments)
        slopes, degenerate = _fit_slope(scatter[:, 0, 0], scatter[:, 1, 1], scatter[:, 0, 1],
                                        spec.fit_method)
        failures += int(degenerate.sum())
        fits = slopes[~degenerate]
        if len(fits) < 2:
            raise DegenerateDataError(
                f"{len(fits)} of {spec.n_experiments} fits are non-degenerate at true slope "
                f"{lam:.6g}; the mean and its CI need at least 2")
        means[j], half[j] = fits.mean(), 1.96 * (fits.std(ddof=1) / np.sqrt(len(fits)))
    return MonteCarloReport(lambda_grid, means, means - half, means + half, failures)


@dataclass(frozen=True)
class DiscrepancyCurves:
    """Predicted estimator offsets Delta T(T), NaN where skipped."""

    t_mk: np.ndarray
    dt_mk: np.ndarray
    n_skipped: int = 0

    def at(self, coefficient: str, t_mk: float) -> float:
        return float(np.interp(t_mk, self.t_mk, self.dt_mk[:, COEFFICIENTS.index(coefficient)]))


def temperature_discrepancy(report: MonteCarloReport, levels) -> DiscrepancyCurves:
    """Map the slope bias through the inversion: at each bath temperature,
    50 to 250 mK in 5 mK steps, evaluate the coefficient, look up its mean
    fitted value, invert, and record the offset.  Coefficients outside the
    study grid and slopes outside the attainable range are skipped and counted.
    """
    t_grid = np.arange(50.0, 250.1, 5.0)
    lg = report.lambda_grid
    dt = np.full((len(t_grid), 3), np.nan)
    for k, c in enumerate(COEFFICIENTS):
        lam = coefficient_vs_temperature(levels, t_grid, c)
        lam_fit = np.interp(lam, lg, report.mean_fit)
        lo, hi = attainable_range(levels, c)
        ok = (lg[0] <= lam) & (lam <= lg[-1]) & (lo <= lam_fit) & (lam_fit <= hi)
        dt[ok, k] = _checked_inverse(levels, c, lam_fit[ok], False) - t_grid[ok]
    return DiscrepancyCurves(t_grid, dt, int(np.count_nonzero(np.isnan(dt))))


@dataclass(frozen=True)
class RepeatedStats:
    """Per-coefficient temperature samples over repeated noisy estimates."""

    t_mk: np.ndarray
    noise_sigma: float
    seed: Optional[int]

    def samples(self, coefficient: str) -> np.ndarray:
        return self.t_mk[:, COEFFICIENTS.index(coefficient)]

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
               "n_runs": len(self.t_mk)}
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
    clamp: bool = False,
) -> RepeatedStats:
    """Re-estimate temperature ``n_runs`` (at least 2) times with fresh noise
    draws on one noiseless set of windowed responses.

    Noise is iid N(0, noise_sigma^2) per sample and quadrature on the
    analysis window (the estimator never sees samples outside it).  A draw's
    pair moments are those of the six traces' fit points' scatter, sampled
    from its exact law (``_sample_scatter``), through ``_pair_moments``; its
    slopes take the estimator's Deming rule, ``_aggregate`` (zero widths, so
    a plain mean) and ``_checked_inverse``, so a draw gets the temperatures,
    or the error, that estimate_temperature gives with n_bootstrap 0 to
    traces with its scatter.  With ``noise_sigma`` 0 every draw is the
    clean fit.  Deterministic under a fixed seed.
    """
    _check_kind("n_runs", int, n_runs)
    if n_runs < 2:
        raise ValueError(f"n_runs must be at least 2 for a spread, got {n_runs}")
    if isinstance(noise_sigma, numbers.Real) and not 0 <= noise_sigma < np.inf:  # NaN too
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    _check_kind("noise_sigma", float, noise_sigma)
    clean = responses.iq()
    if noise_sigma == 0:
        slopes = _fit_pairs(deming_slope, clean)[0]
    else:
        points = clean.reshape(6, -1)
        _check_fit_inputs(points.shape[-1])
        scatter = _sample_scatter(np.random.default_rng(seed), points, noise_sigma, n_runs)
        slopes, degenerate = _fit_slope(*_pair_moments(scatter), "deming")
        if np.any(degenerate):
            pair = _PAIR_NAMES[np.argwhere(degenerate)[0][1]]
            raise DegenerateDataError(f"{pair}: a sampled scatter or covariance is exactly "
                                      f"zero; slope undefined")
    slopes = np.broadcast_to(slopes, (n_runs, 9)).reshape(n_runs, 3, 3)
    lam, _ = _aggregate(slopes, np.zeros_like(slopes))
    t = np.stack([_checked_inverse(levels, c, lam[:, k], clamp)
                  for k, c in enumerate(COEFFICIENTS)], axis=-1)
    return RepeatedStats(t, noise_sigma, seed)
