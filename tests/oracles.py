"""Oracles the tests hold the simulator and the estimator against: the
exact population permutation a gate sequence should perform, the
coefficients A, B, C as population ratios, the nine difference pairs as
complex series, the pair bootstrap one resample at a time, the temperature
inversion one value at a time, and the Monte-Carlo studies written one
experiment or draw at a time (both studies as their law and as the explicit
noisy data of their sampled moments), and the trace CSV reader built on the
csv module."""

import csv

import numpy as np

from tritherm.constants import GHZ_TO_MK
from tritherm.hilbert import Populations
from tritherm.pulses import GateSequence
from tritherm.readout import IQTrace, add_noise
from tritherm.thermometry import (
    COEFFICIENTS,
    DIFFERENCE_PAIRS,
    T_BRACKET_MK,
    DegenerateDataError,
    SequenceResponses,
    attainable_range,
    deming_slope,
    estimate_temperature,
)


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


def bootstrap_pair_slopes_loop(xs, ys, n_bootstrap, seed, delta=1.0):
    """The shared pair bootstrap one resample at a time: per resample one
    integers(0, n, size=n) draw of the sample instants, then deming_slope on
    each pair row (xs, ys are (k, n)) at those instants, skipping degenerate
    ones.  Returns each row's kept slopes, in draw order."""
    gen = np.random.default_rng(seed)
    n = xs.shape[-1]
    kept = [[] for _ in xs]
    for _ in range(n_bootstrap):
        idx = gen.integers(0, n, size=n)
        for row, (x, y) in enumerate(zip(xs, ys)):
            try:
                kept[row].append(deming_slope(x[idx], y[idx], delta)[0])
            except DegenerateDataError:
                pass
    return [np.array(slopes) for slopes in kept]


def _bias_study_of_clouds(spec, lambda_grid, clouds):
    """Per true slope, fit each cloud that ``clouds(rng, x0, slope)`` yields
    with deming_slope or least squares, skipping and counting degenerate
    fits.  Returns (mean_fit, ci_low, ci_high, n_failures)."""
    rng = np.random.default_rng(spec.seed)
    x0 = spec.design_points()
    rows, failures = [], 0
    for lam in np.asarray(lambda_grid, dtype=float):
        fits = []
        for xs, ys in clouds(rng, x0, lam):
            if spec.fit_method == "deming":
                try:
                    fits.append(deming_slope(xs, ys, delta=1.0)[0])
                except DegenerateDataError:
                    failures += 1
                continue
            xc = xs - xs.mean()
            sxx = np.mean(xc ** 2)
            if xs.min() == xs.max() or sxx == 0.0:
                failures += 1
                continue
            fits.append(float(np.mean(xc * (ys - ys.mean())) / sxx))
        fits = np.asarray(fits)
        m = fits.mean()
        sem = fits.std(ddof=1) / np.sqrt(len(fits))
        rows.append((m, m - 1.96 * sem, m + 1.96 * sem))
    mean, lo, hi = (np.array(col) for col in zip(*rows))
    return mean, lo, hi, failures


def slope_bias_study_loop(spec, lambda_grid):
    """The bias study's law, one explicit noisy cloud per experiment: x and
    y noise drawn point by point, N(0, noise_sigma^2) on each axis."""
    def clouds(rng, x0, lam):
        for _ in range(spec.n_experiments):
            xs = x0 + rng.normal(0.0, spec.noise_sigma, size=len(x0))
            yield xs, lam * x0 + rng.normal(0.0, spec.noise_sigma, size=len(x0))
    return _bias_study_of_clouds(spec, lambda_grid, clouds)


def noisy_rows_replayed(rng, points, sigma, size):
    """``size`` noisy copies of the rows ``points`` (m, n) whose scatters
    are those errorlab._sample_scatter draws from ``rng``: replays its draws
    (G, then the chi-square diagonal and the entries below it of the
    Bartlett factor L, or Z in its place, as it documents) and builds each
    copy points + sigma (G Q^T + L R^T), with Q columns 1..k of the complete
    QR of [1, Xc^T], Xc the centred points, R its remaining columns
    (orthonormal to 1 and Q), and L padded with zero columns to R's width.
    Returns the (size, m, n) copies."""
    m, n = points.shape
    xc = points - points.mean(axis=-1, keepdims=True)
    basis = np.linalg.qr(np.column_stack([np.ones(n), xc.T]), mode="complete")[0]
    k = min(m, n - 1)
    q, r = basis[:, 1:k + 1], basis[:, k + 1:]
    nu = r.shape[1]
    g = rng.standard_normal(size=(size, m, k))
    if nu >= m:
        chi2 = rng.chisquare(nu - np.arange(m), size=(size, m))
        below = rng.standard_normal(size=(size, m * (m - 1) // 2))
    else:
        z = rng.standard_normal(size=(size, m, nu))
    copies = []
    for run in range(size):
        if nu >= m:
            lower = np.zeros((m, nu))
            entries = iter(below[run])
            for i in range(m):
                lower[i, i] = np.sqrt(chi2[run, i])
                for j in range(i):
                    lower[i, j] = next(entries)
        else:
            lower = z[run]
        copies.append(points + sigma * (g[run] @ q.T + lower @ r.T))
    return np.array(copies)


def slope_bias_study_replayed(spec, lambda_grid):
    """The sampled bias study with every experiment's cloud built: per true
    slope, the noisy copies of the rows (x0, slope x0) that
    noisy_rows_replayed rebuilds from the study's draws, which have the
    sampled second moments."""
    def clouds(rng, x0, lam):
        return noisy_rows_replayed(rng, np.stack([x0, lam * x0]), spec.noise_sigma,
                                   spec.n_experiments)
    return _bias_study_of_clouds(spec, lambda_grid, clouds)


def repeated_temperatures_loop(responses, levels, n_runs, noise_sigma, seed,
                               quadratures="IQ", delta=1.0, clamp=False):
    """The repeated study one draw at a time: fresh noise on each trace
    through readout.add_noise, then estimate_temperature with n_bootstrap 0.
    Returns the (n_runs, 3) array of T_A, T_B, T_C."""
    rng = np.random.default_rng(seed)
    temps = []
    for _ in range(n_runs):
        noisy = SequenceResponses.from_dict({name: add_noise(tr, noise_sigma, 1, rng)
                                             for name, tr in responses.as_dict().items()})
        report = estimate_temperature(noisy, levels, delta=delta, quadratures=quadratures,
                                      n_bootstrap=0, clamp=clamp)
        temps.append([est.t_mk for est in report.estimates])
    return np.array(temps)


def repeated_temperatures_replayed(responses, levels, n_runs, noise_sigma, seed,
                                   quadratures="IQ", delta=1.0, clamp=False):
    """The sampled repeated study with every draw's traces built: each draw
    runs estimate_temperature with n_bootstrap 0 on traces carrying the
    noisy fit points that noisy_rows_replayed rebuilds from the study's
    draws (Q untouched for quadratures "I").  Returns the (n_runs, 3) array
    of T_A, T_B, T_C."""
    traces = responses.as_dict()
    clean = responses.iq()
    points = clean.reshape(6, -1) if quadratures == "IQ" else clean[:, 0]
    copies = noisy_rows_replayed(np.random.default_rng(seed), points, noise_sigma, n_runs)
    temps = []
    for noisy in copies:
        iq = noisy.reshape(6, 2, -1) if quadratures == "IQ" else np.stack(
            [noisy, clean[:, 1]], axis=1)
        drawn = SequenceResponses.from_dict({
            name: IQTrace(tr.t_ns, iq[slot, 0], iq[slot, 1], name)
            for slot, (name, tr) in enumerate(traces.items())})
        report = estimate_temperature(drawn, levels, delta=delta, quadratures=quadratures,
                                      n_bootstrap=0, clamp=clamp)
        temps.append([est.t_mk for est in report.estimates])
    return np.array(temps)


def invert_coefficient_scalar(levels, which, value):
    """Temperature (mK) at which coefficient ``which`` equals ``value``, by
    the same Newton iteration in e = exp(-h f_ge / k_B T) as the estimator,
    one in-range value at a time in Python floats."""
    lo, hi = attainable_range(levels, which)
    if not lo < value < hi:
        raise ValueError("the oracle takes values strictly inside the attainable range")
    f_ge, f_gf = (levels.f_ge_ghz, levels.f_gf_ghz) if hasattr(levels, "f_ge_ghz") else levels
    r = f_gf / f_ge
    if which == "A":
        value = 1.0 - value
    a, b, c = (1.0, 1.0 + value, value) if which == "B" else (1.0 - value, 1.0, value)
    e = 0.0
    for _ in range(100):
        e_r1 = e ** (r - 1.0)
        e_next = e - (a * e_r1 * e - b * e + c) / (a * r * e_r1 - b)
        if e_next <= e:
            return float(min(max(GHZ_TO_MK * f_ge / -np.log(e), T_BRACKET_MK[0]),
                             T_BRACKET_MK[1]))
        e = e_next
    raise RuntimeError("not converged")


def _quoted(label):
    """A label as the reader's messages quote it: whole up to 40 characters,
    else its first 40 and its length."""
    return repr(label) if len(label) <= 40 else f"{label[:40]!r}... ({len(label)} characters)"


def _csv_record_lines(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [reader.line_num for _ in reader]


def _csv_raise_first_bad_row(path, rows) -> None:
    for line, row in zip(_csv_record_lines(path), rows):
        if len(row) != 4:
            raise ValueError(f"line {line}: expected 4 fields t_ns,I,Q,label, got {len(row)}")
        try:
            [float(v) for v in row[:3]]
        except ValueError:
            raise ValueError(f"line {line}: non-numeric value in {row[:3]}") from None


def read_trace_csv_csv_module(path):
    """The trace CSV reader row by row through ``csv.reader``: every record
    a list of strings, the numbers converted by float() in one numpy call,
    a failed conversion traced back to its line.  Two changes from its
    original: labels are told apart as Python strings, where numpy's string
    comparison dropped trailing NULs and so merged the traces of ``a`` and
    ``a\\x00``; and the header must be exactly the four names, where the
    original took any header starting with them (``t_ns,I,Q,label,extra``)
    and then rejected every row carrying the fifth field.  Labels longer than
    40 characters are quoted in messages by their first 40 and their length,
    as the reader quotes them."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file, expected the header t_ns,I,Q,label")
            if header != ["t_ns", "I", "Q", "label"]:
                raise ValueError(f"line 1: unexpected trace header {header}")
            rows = list(reader)
        if set(map(len, rows)) - {4}:
            _csv_raise_first_bad_row(path, rows)
        t, i, q, labels = zip(*rows) if rows else ((),) * 4
        try:
            data = np.array((t, i, q), dtype=float)
        except ValueError:
            _csv_raise_first_bad_row(path, rows)
            raise
        out = {}
        for label in dict.fromkeys(labels):
            at = np.flatnonzero([tag == label for tag in labels])
            arr = data[:, at]
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=0))
            if bad.size:
                raise ValueError(f"line {_csv_record_lines(path)[at[bad[0]]]}: non-finite "
                                 f"value in trace {_quoted(label)}")
            dt = np.diff(arr[0])
            stalled = np.flatnonzero(dt <= 0)
            if stalled.size:
                raise ValueError(f"line {_csv_record_lines(path)[at[stalled[0] + 1]]}: "
                                 f"sample times of trace {_quoted(label)} do not increase")
            uneven = np.flatnonzero(np.abs(dt - dt[:1]) > 1e-9)
            if uneven.size:
                raise ValueError(f"line {_csv_record_lines(path)[at[uneven[0] + 1]]}: "
                                 f"sample spacing of trace {_quoted(label)} is not uniform")
            out[label] = IQTrace(arr[0], arr[1], arr[2], label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return out
