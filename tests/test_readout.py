import ast
import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import read_trace_csv_csv_module, strang_step
from superops import static_super, unit_superoperator
from tritherm import readout
from tritherm.constants import TWO_PI
from tritherm.lindblad import DissipationSpec, build_liouvillian
from tritherm.pulses import READOUT_STEP_NS
from tritherm.readout import (
    IQTrace,
    ReadoutConfig,
    add_noise,
    normalization_factor,
    pure_basis_states,
    read_trace_csv,
    ring_up_ns,
    synthesize_traces,
    window,
    write_trace_csv,
    write_trace_files,
)

seed = 20260312


def test_readout_config_defaults_and_grid():
    cfg = ReadoutConfig()
    assert cfg.n_samples == 2000
    t = cfg.time_grid()
    assert t[0] == 0.0 and t[-1] == 1999.0
    windowed_count = np.sum((t >= cfg.window_start_ns) & (t < cfg.window_end_ns))
    assert windowed_count == 350


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(window_start_ns=500.0, window_end_ns=450.0)
    with pytest.raises(ValueError):
        ReadoutConfig(window_end_ns=2500.0)
    with pytest.raises(ValueError):
        ReadoutConfig(if_mhz=0.0)
    with pytest.raises(ValueError):
        ReadoutConfig(noise_sigma=-0.1)


def test_ring_up_check(small_ops):
    rspec = small_ops.rspec  # Q = 3100 at 7.75 GHz -> 100 ns
    assert abs(ring_up_ns(rspec) - 100.0) < 1e-9
    assert ReadoutConfig(window_start_ns=100.0).check_ring_up(rspec) is None
    msg = ReadoutConfig(window_start_ns=50.0).check_ring_up(rspec)
    assert msg is not None and "ring-up" in msg


def test_iq_trace_validation():
    t = np.arange(5.0)
    with pytest.raises(ValueError):
        IQTrace(t, np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        IQTrace(np.array([0.0, 1.0, 3.0]), np.zeros(3), np.zeros(3))
    tr = IQTrace(t, np.ones(5), 2 * np.ones(5), label="x0")
    np.testing.assert_allclose(tr.complex_vals(), (1 + 2j) * np.ones(5))
    np.testing.assert_allclose(tr.scaled(0.5).i_vals, 0.5 * np.ones(5))


def test_pure_basis_states_thermal_resonator(small_liou):
    states = pure_basis_states(small_liou)
    assert set(states) == {"g", "e", "f"}
    ops = small_liou.ops
    n_r = small_liou.occupations.n_r
    rho = states["e"].reshape(ops.dim, ops.dim)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    pops = ops.subpopulations(rho)
    assert abs(pops[1] - 1.0) < 1e-12
    # resonator block is geometric at the bath occupation
    diag = np.real(np.diag(rho))
    block = diag[ops.rspec.n_states:2 * ops.rspec.n_states]
    assert abs(block[1] / block[0] - n_r / (1.0 + n_r)) < 1e-12


def test_synthesis_linearity(small_liou):
    cfg = ReadoutConfig(probe_duration_ns=300.0, window_start_ns=50.0,
                        window_end_ns=250.0)
    states = pure_basis_states(small_liou)
    mix = 0.6 * states["g"] + 0.3 * states["e"] + 0.1 * states["f"]
    (traces,) = synthesize_traces([{**states, "mix": mix}], [small_liou], cfg)
    expect = (0.6 * traces["g"].complex_vals() + 0.3 * traces["e"].complex_vals()
              + 0.1 * traces["f"].complex_vals())
    np.testing.assert_allclose(traces["mix"].complex_vals(), expect, atol=1e-12)
    assert len(traces["mix"].t_ns) == 300


def _if_phase(cfg):
    return np.exp(1j * TWO_PI * cfg.if_mhz * 1e-3 * cfg.time_grid())[:, None]


def _stacked(traces, labels):
    return np.stack([traces[lab].complex_vals() for lab in labels], axis=1)


def test_row_propagation_matches_forward_states(small_liou):
    # reference: every state column propagated forward through the shared
    # split-step, <a> read off each sample; the readout steps the transposed
    # row instead, so this checks that the transposed step is the adjoint
    cfg = ReadoutConfig()
    states = pure_basis_states(small_liou)
    states["mix"] = 0.5 * states["g"] + 0.3 * states["e"] + 0.2 * states["f"]
    m = int(np.ceil(cfg.sample_dt_ns / READOUT_STEP_NS))
    dt = cfg.sample_dt_ns / m
    ops = small_liou.ops
    w, v = np.linalg.eigh(ops.h_static(ops.rspec.fr_ghz)
                          + cfg.probe_amplitude_ghz * (ops.a + ops.adag))
    u = (v * np.exp(-1j * TWO_PI * dt * w)) @ v.conj().T
    half, full = small_liou.dissipator_step(dt)
    a_row = ops.a.T.reshape(-1)
    ref = np.empty((cfg.n_samples, len(states)), dtype=complex)
    for j, col in enumerate(states.values()):
        for k in range(cfg.n_samples):
            ref[k, j] = a_row @ col
            col = strang_step(col, (u,) * m, half, full)
    ref *= _if_phase(cfg)

    got = _stacked(synthesize_traces([states], [small_liou], cfg)[0], states)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_batched_readout_matches_each_point_alone(small_ops):
    # two baths: two dissipators and two sets of basis states, one probe
    cfg = ReadoutConfig(probe_duration_ns=300.0, window_start_ns=50.0, window_end_ns=250.0)
    lious = [build_liouvillian(small_ops, DissipationSpec(gamma_eg_mhz=0.03, gamma_fe_mhz=0.06,
                                                          bath_t_mk=t_mk))
             for t_mk in (50.0, 200.0)]
    states = [pure_basis_states(liou) for liou in lious]
    states[1]["mix"] = 0.5 * states[1]["g"] + 0.5 * states[1]["f"]
    batch = synthesize_traces(states, lious, cfg)
    assert [list(b) for b in batch] == [list(s) for s in states]
    for got, point, liou in zip(batch, states, lious):
        ref = _stacked(synthesize_traces([point], [liou], cfg)[0], point)
        assert np.max(np.abs(_stacked(got, point) - ref)) <= 1e-12 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="^2 state mappings for 1 Liouvillians$"):
        synthesize_traces(states, lious[:1], cfg)


def test_readout_converges_to_exact_propagator(small_liou, monkeypatch):
    # exact one-sample propagator exp(L dt) of the probed Liouvillian
    cfg = ReadoutConfig()
    ops = small_liou.ops
    states = pure_basis_states(small_liou)
    l_ro = (static_super(small_liou, ops.rspec.fr_ghz)
            + unit_superoperator(cfg.probe_amplitude_ghz * (ops.a + ops.adag)))
    prop = expm(l_ro.toarray() * cfg.sample_dt_ns)
    cols = np.stack(list(states.values()), axis=1)
    a_row = ops.a.T.reshape(-1)
    exact = np.empty((cfg.n_samples, len(states)), dtype=complex)
    for k in range(cfg.n_samples):
        exact[k] = a_row @ cols
        cols = prop @ cols
    exact *= _if_phase(cfg)
    peak = np.max(np.abs(exact))

    def error():
        got = _stacked(synthesize_traces([states], [small_liou], cfg)[0], states)
        return np.max(np.abs(got - exact)) / peak

    err = error()
    monkeypatch.setattr(readout, "READOUT_STEP_NS", READOUT_STEP_NS / 2)
    err_half = error()
    assert err <= 1e-6
    # Strang splitting is second order: halving the substep cuts ~4x
    assert err_half <= err / 3


def test_first_sample_is_initial_expectation(small_liou):
    cfg = ReadoutConfig(probe_duration_ns=100.0, window_start_ns=10.0,
                        window_end_ns=90.0)
    ops = small_liou.ops
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho[0, 0] = 0.5
    rho[0, 1] = rho[1, 0] = 0.5  # coherence gives <a> != 0 at t = 0
    rho[1, 1] = 0.5
    tr = synthesize_traces([{"rho": rho.reshape(-1)}], [small_liou], cfg)[0]["rho"]
    a0 = np.trace(ops.a @ rho)
    assert abs(tr.complex_vals()[0] - a0) < 1e-12


def test_normalization_factor(small_liou):
    cfg = ReadoutConfig(probe_duration_ns=400.0, window_start_ns=100.0,
                        window_end_ns=390.0)
    (traces,) = synthesize_traces([pure_basis_states(small_liou)], [small_liou], cfg)
    basis = [traces[lab] for lab in ("g", "e", "f")]
    f = normalization_factor(basis)
    peak = max(np.max(np.abs(t.scaled(f).complex_vals())) for t in basis)
    assert abs(peak - 1.0) < 1e-12


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.001])
def test_add_noise_rejects_noise_that_is_not_a_finite_std(sigma):
    # NaN once passed the sign check and returned a NaN trace
    clean = IQTrace(np.arange(10.0), np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError, match="^noise_sigma must be finite and non-negative"):
        add_noise(clean, sigma, 1, seed)


@pytest.mark.parametrize("sigma", ["0.1", None, True])
def test_add_noise_rejects_noise_that_is_not_a_number(sigma):
    # strings and None once ended in numpy's bare TypeError, True ran as 1
    clean = IQTrace(np.arange(10.0), np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError, match=f"^noise_sigma must be a number, got {sigma!r}$"):
        add_noise(clean, sigma, 1, seed)


def test_noise_determinism_and_scale():
    t = np.arange(2000.0)
    clean = IQTrace(t, np.zeros(2000), np.zeros(2000))
    a = add_noise(clean, 0.002, 60000, seed)
    b = add_noise(clean, 0.002, 60000, seed)
    c = add_noise(clean, 0.002, 60000, seed + 1)
    np.testing.assert_array_equal(a.i_vals, b.i_vals)
    np.testing.assert_array_equal(a.q_vals, b.q_vals)
    assert np.max(np.abs(a.i_vals - c.i_vals)) > 0.0
    # sigma is the post-averaging std per quadrature
    assert abs(np.std(a.i_vals) - 0.002) < 2e-4
    assert abs(np.std(a.q_vals) - 0.002) < 2e-4
    assert add_noise(clean, 0.0, 60000, seed) is clean


def test_window_half_open():
    t = np.arange(10.0)
    tr = IQTrace(t, t.copy(), t.copy())
    cfg = ReadoutConfig(probe_duration_ns=10.0, window_start_ns=2.0,
                        window_end_ns=7.0, sample_dt_ns=1.0)
    w = window(tr, cfg)
    np.testing.assert_array_equal(w.t_ns, [2.0, 3.0, 4.0, 5.0, 6.0])


def test_trace_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(seed)
    t = np.arange(100.0)
    traces = [
        IQTrace(t, rng.normal(size=100), rng.normal(size=100), label=lab)
        for lab in ("x0", "x1")
    ]
    path = tmp_path / "traces.csv"
    write_trace_csv(path, traces)
    back = read_trace_csv(path)
    assert set(back) == {"x0", "x1"}
    for tr in traces:
        got = back[tr.label]
        np.testing.assert_allclose(got.i_vals, tr.i_vals, rtol=1e-11)
        np.testing.assert_allclose(got.q_vals, tr.q_vals, rtol=1e-11)


def _write_rows_one_by_one(path, traces):
    """Reference writer: one ``writerow`` per sample, each time formatted on
    its own."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_ns", "I", "Q", "label"])
        for tr in traces:
            for t, i, q in zip(tr.t_ns, tr.i_vals, tr.q_vals):
                w.writerow([np.format_float_positional(t, trim="-"), f"{i:.12g}",
                            f"{q:.12g}", tr.label])


# labels csv quotes (a comma, a quote, a line break), leaves bare, or writes
# as "" when alone in a row (the empty one)
LABELS = ["a", "b", "", "x,y", 'q"t', "l\nm", " s", "c\r\nd", "#", "a\x00", "\r"]


@st.composite
def trace_sets(draw):
    """One to three labelled traces on one or two grids, so that labels
    often share a grid."""
    grids = draw(st.lists(st.builds(lambda n, t0, dt: t0 + dt * np.arange(n),
                                    st.integers(1, 30), st.floats(-1e4, 1e4),
                                    st.floats(1e-6, 1e3)), min_size=1, max_size=2))
    labels = draw(st.lists(st.one_of(st.sampled_from(LABELS), st.text(max_size=6)),
                           min_size=1, max_size=3, unique=True))
    traces = []
    for label in labels:
        t = grids[draw(st.integers(0, len(grids) - 1))]
        i, q = (np.array(draw(st.lists(st.floats(), min_size=len(t), max_size=len(t))))
                for _ in range(2))
        traces.append(IQTrace(t, i, q, label=label))
    return traces


def _example_traces():
    # two labels on one non-integer grid, the empty one among them, plus one
    # on a grid of its own
    rng = np.random.default_rng(seed)
    t = 12.5 + 0.1 * np.arange(300)
    traces = [IQTrace(t, rng.normal(size=300), rng.normal(size=300), label=lab)
              for lab in ("", "x1")]
    traces.append(IQTrace(t[:50] / 3.0, rng.normal(size=50) * 1e-7,
                          rng.normal(size=50) * 1e5, label='say "hi",\r\n'))
    return traces


@settings(max_examples=80, deadline=None)
@given(traces=trace_sets())
@example(traces=_example_traces())
def test_trace_csv_matches_row_by_row_writer(tmp_path_factory, traces):
    tmp_path = tmp_path_factory.mktemp("csv")
    write_trace_csv(tmp_path / "fast.csv", traces)
    _write_rows_one_by_one(tmp_path / "ref.csv", traces)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trace_files_format_a_shared_grid_once(tmp_path, monkeypatch):
    # simulate's seven files share one time grid: it is formatted once for
    # all of them, and each file has the bytes write_trace_csv gives it
    traces = _example_traces()
    files = {tmp_path / f"{k}.csv": traces[k:k + 2] for k in range(3)}
    for path, group in files.items():
        write_trace_csv(path.with_suffix(".ref"), group)
    calls = []

    def counted(*args, _inner=np.format_float_positional, **kwargs):
        calls.append(args[0])
        return _inner(*args, **kwargs)

    monkeypatch.setattr(np, "format_float_positional", counted)
    write_trace_files(files)
    assert len(calls) == 300 + 50
    for path in files:
        assert path.read_bytes() == path.with_suffix(".ref").read_bytes()


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,re,im,tag\n0,0,0,x0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_trace_csv_header_must_be_exactly_the_four_names(tmp_path):
    # a fifth header field was once let through, and every row carrying one rejected
    path = tmp_path / "traces.csv"
    for header in ("t_ns,I,Q,label,extra", "t_ns,I,Q", '"t_ns","I","Q","label",'):
        path.write_text(header + "\n0,0.5,0.25,a\n")
        with pytest.raises(ValueError, match=r"^.*: line 1: unexpected trace header \["):
            read_trace_csv(path)
    # quoting is csv's business: a quoted header of the four names reads
    path.write_text('"t_ns","I","Q","label"\r\n0,0.5,0.25,a\r\n1,0.5,0.25,a\r\n')
    assert list(read_trace_csv(path)) == ["a"]


def test_overlong_fields_beyond_the_csv_limit(tmp_path):
    # numpy's parser, which reads accepted files, takes a label over the csv
    # module's 131072-character limit; in the header it is named at line 1
    label = "x" * 200_000
    rows = "".join(f"{t},0.5,0.25,{label}\n" for t in range(5))
    path = tmp_path / "traces.csv"
    path.write_text("t_ns,I,Q,label\n" + rows)
    assert len(read_trace_csv(path)[label].t_ns) == 5
    path.write_text(f"t_ns,I,Q,{label}\n" + rows)
    with pytest.raises(ValueError) as err:
        read_trace_csv(path)
    assert str(err.value) == f"{path}: line 1: field larger than field limit (131072)"


LONG_LABEL = "'" + "x" * 40 + "'... (200000 characters)"


@pytest.mark.parametrize("last, message", [
    # a message quotes a long label's first 40 characters and its length
    ("5,inf,0.25,{label}", f"line 7: non-finite value in trace {LONG_LABEL}"),
    ("5,0.5", "line 7: expected 4 fields t_ns,I,Q,label, got 2"),
    ("4,0.5,0.25,{label}", f"line 7: sample times of trace {LONG_LABEL} do not increase"),
    ("5.5,0.5,0.25,{label}", f"line 7: sample spacing of trace {LONG_LABEL} is not uniform"),
])
def test_overlong_labels_do_not_hide_the_faulty_line(tmp_path, last, message):
    # finding the line reads the long labels with the csv module, whose field
    # limit once named line 2; the limit is lifted for that read only
    label = "x" * 200_000
    rows = [f"{t},0.5,0.25,{label}" for t in range(5)] + [last.format(label=label)]
    path = tmp_path / "traces.csv"
    path.write_text("t_ns,I,Q,label\n" + "".join(row + "\n" for row in rows))
    limit = csv.field_size_limit()
    with pytest.raises(ValueError) as err:
        read_trace_csv(path)
    assert str(err.value) == f"{path}: " + message.format(label=label)
    assert csv.field_size_limit() == limit


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    t0=st.floats(-1e4, 1e4),
    dt=st.floats(1e-6, 1e3),
    labels=st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_trace_csv_roundtrip_property(tmp_path_factory, n, t0, dt, labels, data):
    # any trace on an increasing uniform grid reads back with its exact
    # times and its samples to the written 12 significant digits
    t = t0 + dt * np.arange(n)
    values = st.floats(-1e6, 1e6)
    traces = [
        IQTrace(t, np.array(data.draw(st.lists(values, min_size=n, max_size=n))),
                np.array(data.draw(st.lists(values, min_size=n, max_size=n))), label=lab)
        for lab in labels
    ]
    path = tmp_path_factory.mktemp("csv") / "traces.csv"
    write_trace_csv(path, traces)
    back = read_trace_csv(path)
    assert list(back) == labels
    for tr in traces:
        got = back[tr.label]
        np.testing.assert_array_equal(got.t_ns, tr.t_ns)
        np.testing.assert_allclose(got.i_vals, tr.i_vals, rtol=1e-11)
        np.testing.assert_allclose(got.q_vals, tr.q_vals, rtol=1e-11)


def _two_label_rows():
    # labels a and b interleaved, ten samples each, 1 ns apart
    return [f"{t},0.5,0.25,{lab}" for t in range(10) for lab in "ab"]


CRLF_ROWS = {k: row + "\r" for k, row in enumerate(_two_label_rows())}


@pytest.mark.parametrize("edit, message", [
    ({4: "2,abc,0.25,a", 7: "3,0.5"}, "line 6: non-numeric value in ['2', 'abc', '0.25']"),
    ({7: "3,0.5"}, "line 9: expected 4 fields t_ns,I,Q,label, got 2"),
    ({9: "4,inf,0.25,b"}, "line 11: non-finite value in trace 'b'"),
    ({11: "5.5,0.5,0.25,b"}, "line 13: sample spacing of trace 'b' is not uniform"),
    ({11: "3,0.5,0.25,b"}, "line 13: sample times of trace 'b' do not increase"),
    # a quoted label spanning two lines moves every later line number by one
    ({2: '1,0.5,0.25,"c\nd"', 7: "3,0.5"}, "line 10: expected 4 fields t_ns,I,Q,label, got 2"),
    # blank lines, which numpy's parser would skip, mid-file and trailing
    ({4: ""}, "line 6: expected 4 fields t_ns,I,Q,label, got 0"),
    ({19: "9,0.5,0.25,b\n"}, "line 22: expected 4 fields t_ns,I,Q,label, got 0"),
    # CRLF line ends, with a short row and with a blank line
    ({**CRLF_ROWS, 7: "3,0.5\r"}, "line 9: expected 4 fields t_ns,I,Q,label, got 2"),
    ({**CRLF_ROWS, 4: "\r"}, "line 6: expected 4 fields t_ns,I,Q,label, got 0"),
    # numbers float() reads but numpy's C parser does not
    ({5: "2,1_0,0.25,b"}, "line 7: non-numeric value in ['2', '1_0', '0.25']"),
    ({6: "3,\u0661,0.25,a"}, "line 8: non-numeric value in ['3', '\u0661', '0.25']"),
    # a label over the csv module's 131072-character limit is valid: the
    # short row after it is named
    ({4: "2,0.5,0.25," + "x" * 200_000, 7: "3,0.5"},
     "line 9: expected 4 fields t_ns,I,Q,label, got 2"),
    # a field over 40 characters is quoted by its first 40 and its length,
    # a sample value and a header name alike
    ({4: "2," + "x" * 100_000 + ",0.25,a"},
     "line 6: non-numeric value in ['2', '" + "x" * 40 + "'... (100000 characters), '0.25']"),
    ({"header": "t_ns,I,Q," + "y" * 100_000},
     "line 1: unexpected trace header ['t_ns', 'I', 'Q', '" + "y" * 40
     + "'... (100000 characters)]"),
])
def test_read_trace_csv_names_the_offending_line(tmp_path, edit, message):
    rows = _two_label_rows()
    edit = dict(edit)
    header = edit.pop("header", "t_ns,I,Q,label")
    for k, row in edit.items():
        rows[k] = row
    path = tmp_path / "traces.csv"
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows))
    with pytest.raises(ValueError) as err:
        read_trace_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_read_trace_csv_splits_labels(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text("t_ns,I,Q,label\n" + "".join(row + "\n" for row in _two_label_rows()))
    traces = read_trace_csv(path)
    assert list(traces) == ["a", "b"]
    for tr in traces.values():
        np.testing.assert_array_equal(tr.t_ns, np.arange(10.0))
        assert np.all(tr.i_vals == 0.5) and np.all(tr.q_vals == 0.25)


def test_accepted_files_never_reach_the_csv_module(tmp_path, monkeypatch):
    # numpy's C parser reads an accepted file alone; the csv module only
    # finds the line of a rejected one
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader on the accept path")

    rng = np.random.default_rng(seed)
    t = np.arange(1000.0)
    traces = [IQTrace(t, rng.normal(size=1000), rng.normal(size=1000), label=lab)
              for lab in ("x0", 'y "1", quoted')]
    path = tmp_path / "traces.csv"
    write_trace_csv(path, traces)
    monkeypatch.setattr(readout.csv, "reader", refuse)
    back = read_trace_csv(path)
    assert list(back) == [tr.label for tr in traces]
    assert sum(len(tr.t_ns) for tr in back.values()) == 2000


# values for a numeric field: bad, non-finite, padded, and 1_0 and a
# non-ASCII digit, which only float() reads
FIELD_VALUES = ["abc", "nan", "inf", "-Infinity", " 1.5 ", "\t2", "1_0", "\u0661", "1\x1c",
                "", " ", "0x1", "1e", "+.5", '"3"', "2.0", "-0"]
HEADERS = ["t_ns,I,Q,label", '"t_ns","I","Q","label"', "t_ns,I,Q,label,extra", "t_ns,I,Q",
           "time,I,Q,label"]


def _field(label, quote):
    if quote or any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


@st.composite
def trace_files(draw):
    """The text of a valid trace file, several labels interleaved, then up to
    three of: a blank line, a short or long row, a replaced value, spaces
    around a number, a time moved back or off the grid."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    grids = [(draw(st.integers(-5, 5)), draw(st.sampled_from([1.0, 0.5, 0.1, 2.5])))
             for _ in labels]
    picks = draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=16))
    numbers = st.floats(allow_nan=False, allow_infinity=False)
    quote = draw(st.booleans())
    rows, seen = [], [0] * len(labels)
    for k in picks:
        t0, dt = grids[k]
        t = t0 + dt * seen[k]
        seen[k] += 1
        i, q = (draw(numbers) for _ in range(2))
        fmt = draw(st.sampled_from([repr, lambda v: f"{v:.12g}"]))
        rows.append([repr(t), fmt(i), fmt(q), _field(labels[k], quote)])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["blank", "short", "long", "value", "spaces", "time"]))
        if kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
            continue
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at]
        if kind == "short":
            del fields[draw(st.integers(0, len(fields))):]
        elif kind == "long":
            fields.append(draw(st.sampled_from(["", "x", '"y"'])))
        elif kind == "value" and fields:
            fields[draw(st.integers(0, min(len(fields), 3) - 1))] = draw(
                st.sampled_from(FIELD_VALUES))
        elif kind == "spaces" and fields:
            col = draw(st.integers(0, min(len(fields), 3) - 1))
            fields[col] = draw(st.sampled_from([" ", "  ", "\t"])) + fields[col] + " "
        elif kind == "time" and fields:  # most often back in time or off the grid
            fields[0] = repr(draw(st.integers(-10, 20)) * 0.5)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.one_of(st.just(HEADERS[0]), st.sampled_from(HEADERS)))
    text = eol.join([header] + [",".join(row) for row in rows])
    return text + eol if draw(st.booleans()) else text


def _outcome(read, path):
    try:
        return [(label, tr.t_ns.tobytes(), tr.i_vals.tobytes(), tr.q_vals.tobytes())
                for label, tr in read(path).items()]
    except ValueError as exc:
        return str(exc)


def _only_float_reads(value):
    return "_" in value or any(not c.isascii() and c.isdecimal() for c in value)


@settings(max_examples=400, deadline=None)
@given(text=trace_files())
def test_reader_agrees_with_csv_module_reader(tmp_path_factory, text):
    # the same traces bit for bit, or the same error naming the same line;
    # the one difference allowed is that 1_0 or a non-ASCII digit, which
    # float() reads, is rejected with its line
    path = tmp_path_factory.mktemp("csv") / "traces.csv"
    path.write_bytes(text.encode())
    got = _outcome(read_trace_csv, path)
    want = _outcome(read_trace_csv_csv_module, path)
    if got != want:
        named = re.fullmatch(rf"{re.escape(str(path))}: line \d+: non-numeric value in (.*)",
                             got if isinstance(got, str) else "", flags=re.S)
        assert named, (got, want)
        assert any(map(_only_float_reads, ast.literal_eval(named.group(1)))), (got, want)
