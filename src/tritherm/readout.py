"""Heterodyne readout synthesis: probe evolution, IQ traces, noise, windowing
and the trace CSV format.

Dynamics run in the frame rotating at the probe carrier (the resonator
frequency); the intermediate-frequency oscillation is reattached afterwards,
I(t) + iQ(t) = <a>(t) exp(i 2 pi f_IF t).  The probe evolution is the
Heisenberg-picture (adjoint) form of the gates' split-step: one row
vec(a^T) is stepped through the transposed Strang slices and dotted with
every prepared state (adjoint master equation: Breuer & Petruccione, The
Theory of Open Quantum Systems, 2002, sec. 3.2).  Noise is modeled
post-averaging as one effective Gaussian per sample and quadrature,
matching how the estimator consumes the data; the shot count is recorded
but individual shots are never drawn.

Trace units are arbitrary but fixed per run by normalizing the pure-state
responses to unit peak magnitude, which puts the default noise level directly
on the scale of the measured responses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .constants import TWO_PI
from .hilbert import ResonatorSpec
from .lindblad import Liouvillian
from .pulses import READOUT_STEP_NS, dissipate, unitary_chain


@dataclass(frozen=True)
class ReadoutConfig:
    """Probe and digitization settings.

    ``noise_sigma`` is the post-averaging noise standard deviation per sample
    and quadrature, in normalized response units.  ``probe_amplitude_ghz`` is
    chosen so the steady-state photon number stays at or below one.
    """

    probe_duration_ns: float = 2000.0
    if_mhz: float = 50.0
    sample_dt_ns: float = 1.0
    window_start_ns: float = 100.0
    window_end_ns: float = 450.0
    noise_sigma: float = 0.002
    n_averages: int = 60000
    probe_amplitude_ghz: float = 2.5e-4

    def __post_init__(self):
        if not 0.0 <= self.window_start_ns < self.window_end_ns <= self.probe_duration_ns:
            raise ValueError("need 0 <= window_start < window_end <= probe_duration")
        if self.if_mhz <= 0:
            raise ValueError("if_mhz must be positive")
        if self.sample_dt_ns <= 0:
            raise ValueError("sample_dt_ns must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_averages < 1:
            raise ValueError("n_averages must be at least 1")
        if self.probe_amplitude_ghz < 0:
            raise ValueError("probe_amplitude_ghz must be non-negative")

    @property
    def n_samples(self) -> int:
        return int(round(self.probe_duration_ns / self.sample_dt_ns))

    def time_grid(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.sample_dt_ns

    def check_ring_up(self, rspec: ResonatorSpec) -> Optional[str]:
        """Warning text when the analysis window opens before the resonator
        ring-up time Q/(4 f_r), else None."""
        t_ring = ring_up_ns(rspec)
        if self.window_start_ns < t_ring - 1e-9:
            return (f"analysis window opens at {self.window_start_ns} ns, before the "
                    f"resonator ring-up time {t_ring:.1f} ns; early samples carry "
                    f"transient rather than steady-state contrast")
        return None


def ring_up_ns(rspec: ResonatorSpec) -> float:
    return rspec.q_loaded / (4.0 * rspec.fr_ghz)


@dataclass(frozen=True)
class IQTrace:
    """One averaged heterodyne record: sample times and both quadratures."""

    t_ns: np.ndarray
    i_vals: np.ndarray
    q_vals: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not (len(self.t_ns) == len(self.i_vals) == len(self.q_vals)):
            raise ValueError("t_ns, i_vals, q_vals must have equal lengths")
        if len(self.t_ns) >= 2:
            dt = np.diff(self.t_ns)
            if np.max(np.abs(dt - dt[0])) > 1e-9:
                raise ValueError("sample spacing must be uniform")

    def complex_vals(self) -> np.ndarray:
        return self.i_vals + 1j * self.q_vals

    def scaled(self, factor: float) -> "IQTrace":
        return IQTrace(self.t_ns, self.i_vals * factor, self.q_vals * factor, self.label)


def pure_basis_states(liou: Liouvillian) -> Dict[str, np.ndarray]:
    """Vectorized bare-level (x) thermal-resonator states for g, e, f.

    These model preparing the transmon in a definite level while the readout
    resonator stays at its bath occupation.
    """
    ops = liou.ops
    n_r = liou.occupations.n_r
    nres = ops.rspec.n_states
    pn = (n_r / (1.0 + n_r)) ** np.arange(nres)
    pn /= pn.sum()
    out = {}
    for label, k in (("g", 0), ("e", 1), ("f", 2)):
        rho = np.zeros((ops.dim, ops.dim), dtype=complex)
        idx = k * nres + np.arange(nres)
        rho[idx, idx] = pn
        out[label] = rho.reshape(-1)
    return out


def synthesize_traces(states: Dict[str, np.ndarray], liou: Liouvillian,
                      config: ReadoutConfig) -> Dict[str, IQTrace]:
    """Probe all ``states`` (vectorized, already in the probe frame) at once.

    <a> at sample k is tr(a P^k rho) = (vec(a^T) P^k) . vec(rho), P being the
    one-sample propagator, so one row is propagated and dotted with every
    state: the cost does not grow with the number of states.  P is the
    gates' Strang split-step over ceil(sample_dt_ns / READOUT_STEP_NS)
    substeps (two of 0.5 ns at the default 1-ns sampling; 7.8e-7 of the
    trace peak off the exact propagator) of the constant probe Hamiltonian
    H_static(f_r) + eps (a + a+), whose unitary U comes from one ``eigh``.
    The row takes the transposed step, built from U^T and the transposed
    dissipator factors; a sample's closing half-step and the next sample's
    opening one merge into one full step, so a sample costs as many
    dissipator applications as substeps.  The IF oscillation is reattached;
    traces are in raw (unnormalized) units.
    """
    ops = liou.ops
    labels = list(states)
    cols = np.stack([states[lab] for lab in labels], axis=1).astype(complex)
    m = int(np.ceil(config.sample_dt_ns / READOUT_STEP_NS))
    dt = config.sample_dt_ns / m
    w, v = np.linalg.eigh(ops.h_static(ops.rspec.fr_ghz)
                          + config.probe_amplitude_ghz * (ops.a + ops.adag))
    u = (v * np.exp(-1j * TWO_PI * dt * w)) @ v.conj().T
    half, full = liou.dissipator_step(dt)
    us, half_t, full_t = (u.T,) * m, tuple(e.T for e in half), tuple(e.T for e in full)
    row = ops.a.T.reshape(-1).astype(complex)
    raw = np.empty((config.n_samples, len(labels)), dtype=complex)
    raw[0] = row @ cols
    # the row after k >= 1 samples is exp(D dt/2)^T z_k: each sample's closing
    # half-step merges with the next one's opening half into one full step,
    # and the last closing half moves onto the states
    cols = np.stack([dissipate(c, half) for c in cols.T], axis=1)
    z = unitary_chain(dissipate(row, half_t), us, full_t)
    for k in range(1, config.n_samples):
        raw[k] = z @ cols
        z = unitary_chain(dissipate(z, full_t), us, full_t)
    t = config.time_grid()
    phase = np.exp(1j * TWO_PI * (config.if_mhz * 1e-3) * t)
    iq = raw * phase[:, None]
    return {
        lab: IQTrace(t, iq[:, j].real.copy(), iq[:, j].imag.copy(), label=lab)
        for j, lab in enumerate(labels)
    }


def normalization_factor(basis: Sequence[IQTrace]) -> float:
    """1 / max |phi| over the pure-state responses (full traces)."""
    peak = max(float(np.max(np.abs(t.complex_vals()))) for t in basis)
    if peak == 0.0:
        raise ValueError("pure-state responses are identically zero; probe off?")
    return 1.0 / peak


def add_noise(trace: IQTrace, noise_sigma: float, n_averages: int, seed) -> IQTrace:
    """Additive Gaussian noise, std ``noise_sigma`` per sample and quadrature.

    The std is interpreted post-averaging, i.e. already divided by the shot
    count; ``n_averages`` is accepted to document that interpretation.
    Deterministic for a fixed seed.
    """
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if noise_sigma == 0.0:
        return trace
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma, size=(2, len(trace.t_ns)))
    return IQTrace(trace.t_ns, trace.i_vals + noise[0], trace.q_vals + noise[1],
                   trace.label)


def window(trace: IQTrace, config: ReadoutConfig) -> IQTrace:
    """Restrict to the analysis window [window_start, window_end) ns."""
    mask = (trace.t_ns >= config.window_start_ns) & (trace.t_ns < config.window_end_ns)
    if not np.any(mask):
        raise ValueError(
            f"window [{config.window_start_ns}, {config.window_end_ns}) ns contains "
            f"no samples of a {trace.t_ns[0]}..{trace.t_ns[-1]} ns trace"
        )
    return IQTrace(trace.t_ns[mask], trace.i_vals[mask], trace.q_vals[mask], trace.label)


_TRACE_HEADER = "t_ns,I,Q,label"
_TRACE_DTYPE = np.dtype([("t", float), ("I", float), ("Q", float), ("label", object)])
# numpy's C parser strips these around a number, float() does not
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(path, traces: Sequence[IQTrace]) -> None:
    """Write traces as CSV rows t_ns, I, Q, label: I and Q with 12 significant
    digits, t_ns with the shortest digits that read back exactly, so that the
    sample spacing ``read_trace_csv`` checks survives the round trip.  The
    bytes are those of ``csv.writer``: CRLF line ends, labels quoted as it
    quotes them.

    The traces of a run share one time grid, so each distinct grid is
    formatted once; the file is built as one string and written at once."""
    grids = {}
    parts = [_TRACE_HEADER + "\r\n"]
    for tr in traces:
        key = (tr.t_ns.dtype.str, tr.t_ns.tobytes())
        if key not in grids:
            grids[key] = [np.format_float_positional(t, trim="-") for t in tr.t_ns]
        end = f",{_csv_field(tr.label)}\r\n"
        parts += [f"{t},{i:.12g},{q:.12g}{end}" for t, i, q in
                  zip(grids[key], tr.i_vals.tolist(), tr.q_vals.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))


def _records(path):
    """(line number, fields) of each csv record, the header first; a record
    the csv module cannot read raises ValueError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None


@contextlib.contextmanager
def _fields_of_any_length():
    """Lift the csv module's field size limit (131072 characters) inside the
    with block and restore it on leaving: numpy's parser reads labels of any
    length, so a long label in the body is no fault to report.  2**31 - 1 is
    the largest limit every platform's C long holds."""
    limit = csv.field_size_limit(2 ** 31 - 1)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def _quoted(label: str) -> str:
    """``label`` quoted for an error message: whole up to 40 characters, else
    its first 40 and its length, so that a long label keeps the message short."""
    return repr(label) if len(label) <= 40 else f"{label[:40]!r}... ({len(label)} characters)"


def _raise_at(path, record: int, message: str) -> None:
    """Raise ``message`` naming the line of record ``record`` after the header."""
    with _fields_of_any_length():
        line, _ = next(itertools.islice(_records(path), record + 1, None))
    raise ValueError(f"line {line}: {message}")


def _are_numbers(values) -> bool:
    """Whether numpy's C parser, which reads the accepted files, and float()
    both read every value: ``1_0`` and non-ASCII digits fail the first,
    ASCII separators around a number the second."""
    try:
        [float(v) for v in values]
        np.loadtxt([",".join('"' + v.replace('"', '""') + '"' for v in values)],
                   delimiter=",", quotechar='"', comments=None)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(path) -> None:
    """Raise for the first row without four fields or with a non-numeric
    sample, naming its line."""
    with _fields_of_any_length():
        for line, row in itertools.islice(_records(path), 1, None):
            if len(row) != 4:
                raise ValueError(f"line {line}: expected 4 fields t_ns,I,Q,label, got {len(row)}")
            if not _are_numbers(row[:3]):
                raise ValueError(f"line {line}: non-numeric value in {row[:3]}")


def _has_blank_line(body: str) -> bool:
    """Whether the body opens with a line break or has one right after
    another, CRLF aside: a blank line, which numpy's C parser skips and csv
    reads as an empty record (or, rarely, a line break in a quoted label)."""
    a = np.frombuffer(body.encode(), np.uint8)
    at = np.flatnonzero((a == 10) | (a == 13))
    second = at[1:][np.diff(at) == 1]
    return at[:1].tolist() == [0] or bool(np.any((a[second - 1] != 13) | (a[second] != 10)))


def _body(path) -> str:
    """The text after a checked header."""
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n") != _TRACE_HEADER:
            # quoted or wrong: read as csv does (the four names span one line;
            # a field over csv's limit, which is none of them, is named as such)
            _, header = next(_records(path), (1, None))
            if header is None:
                raise ValueError("empty file, expected the header t_ns,I,Q,label")
            if header != ["t_ns", "I", "Q", "label"]:
                raise ValueError(f"line 1: unexpected trace header {header}")
        return fh.read()


def read_trace_csv(path) -> Dict[str, IQTrace]:
    """Inverse of ``write_trace_csv``; returns traces keyed by label.

    Traces need not come from the simulator, so the file is checked: an
    empty file, a wrong header, a blank line, a row without exactly four
    fields, a non-numeric or non-finite sample, or a label whose sample
    times do not increase or are not uniformly spaced raises ``ValueError``
    naming the file and the line.  The body is parsed by one numpy
    ``loadtxt`` call; only a failed check, or a body whose line breaks or
    separators the C parser reads differently from csv, goes back to the
    file with the csv module for the line number.
    """
    try:
        body = _body(path)
        if not body:
            return {}
        if _has_blank_line(body) or any(c in body for c in _SEPARATORS):
            _raise_first_bad_row(path)
        try:
            data = np.loadtxt(io.StringIO(body, newline=""), dtype=_TRACE_DTYPE,
                              delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError:
            _raise_first_bad_row(path)
            raise
        labels = data["label"]
        columns = np.array([data["t"], data["I"], data["Q"]])
        # one label per file is the common case and needs no mask; labels are
        # compared as objects, as numpy's string comparison drops trailing NULs
        single = bool((labels == labels[:1]).all())
        out = {}
        for label in [labels[0]] if single else dict.fromkeys(labels.tolist()):
            at = (np.arange(len(labels)) if single else
                  np.flatnonzero(labels == np.array(label, dtype=object)))
            arr = columns if single else columns[:, at]
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=0))
            if bad.size:
                _raise_at(path, at[bad[0]], f"non-finite value in trace {_quoted(label)}")
            dt = np.diff(arr[0])
            stalled = np.flatnonzero(dt <= 0)
            if stalled.size:
                _raise_at(path, at[stalled[0] + 1],
                          f"sample times of trace {_quoted(label)} do not increase")
            uneven = np.flatnonzero(np.abs(dt - dt[:1]) > 1e-9)
            if uneven.size:
                _raise_at(path, at[uneven[0] + 1],
                          f"sample spacing of trace {_quoted(label)} is not uniform")
            out[label] = IQTrace(arr[0], arr[1], arr[2], label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return out
