"""In-memory spans and work counters for the traced benchmark run.

Hooks replace functions at the module attributes that tritherm's own code
looks up at call time (``pipeline.steady_state``, ``cli.run_protocol``, ...),
so the package itself carries no instrumentation.  A hooked name that no
longer exists is reported as ``absent`` instead of failing the run; the
untraced run installs no hooks at all and uses ``NullTracer``.

Spans hold name, start, end, parent and run id, and stay in memory until the
run writes them out.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self.gauges = {}
        self.hooks = {}
        self.hook_errors = {}
        self._stack = []
        self._installed = []
        self._recording = True

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self._recording:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own correctness checks without recording them."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def current(self):
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def wrap(self, module_name, attr, span_name=None, attrs=None, after=None, count=None):
        """Replace ``module_name.attr`` with a recording wrapper.

        ``span_name`` opens a span per call (``attrs(args, kwargs)`` adds span
        attributes); ``count`` only increments a counter, for functions called
        too often to span; ``after(tracer, args, kwargs, result)`` records
        work counters from the call's inputs or result.
        """
        key = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.hooks[key] = "absent"
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.hooks[key] = "absent"
            return

        def observe(fn, *fn_args):
            # a later signature or result change must not break the run
            try:
                return fn(*fn_args)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                self.hook_errors[key] = f"{type(exc).__name__}: {exc}"
                return {}

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return original(*args, **kwargs)
            if count is not None:
                self.counters[count] += 1
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                extra = observe(attrs, args, kwargs) if attrs else {}
                with self.span(span_name, **extra):
                    result = original(*args, **kwargs)
            if after is not None:
                observe(after, self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))
        self.hooks[key] = "installed"

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self):
        """Per span name: call count, total duration and total self time."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[s["id"]]
        return out

    def dump(self):
        return {"run": self.run_id, "hooks": self.hooks, "hook_errors": self.hook_errors,
                "counters": dict(self.counters), "gauges": self.gauges, "spans": self.spans}


# ---------------------------------------------------------------------------
# the hooks: (module looked up at call time, attribute, span or counter)


def _ivp_counts(tracer, args, kwargs, sol):
    tracer.counters["pulses.rhs_evals"] += int(sol.nfev)
    tracer.counters["pulses.integrator_steps"] += len(sol.t) - 1


def _states_probed(tracer, args, kwargs, result):
    tracer.counters["readout.states_probed"] += len(result)


def _propagator_bytes(tracer, args, kwargs, prop):
    # computed from the array's size, not measured from the allocator
    tracer.gauges["readout.propagator_bytes"] = max(
        tracer.gauges.get("readout.propagator_bytes", 0), int(prop.nbytes))


def _slope_in_fit(tracer, args, kwargs, result):
    # the first slope of each deming_fit is the point fit, the rest are
    # bootstrap resamples; per_layer() subtracts one per fit
    if tracer.current() == "thermometry.deming_fit":
        tracer.counters["thermometry.fit_slopes"] += 1


def install_hooks(tracer: Tracer) -> None:
    for module in ("tritherm.cli", "tritherm.pipeline"):
        tracer.wrap(module, "estimate_temperature", span_name="thermometry.estimate")
    tracer.wrap("tritherm.errorlab", "estimate_temperature", span_name="thermometry.estimate",
                count="errorlab.repeated_estimates")
    tracer.wrap("tritherm.thermometry", "deming_fit", span_name="thermometry.deming_fit")
    tracer.wrap("tritherm.thermometry", "deming_slope", after=_slope_in_fit)

    tracer.wrap("tritherm.cli", "load_config", span_name="config.load")
    tracer.wrap("tritherm.config", "build_composite_operators", span_name="hilbert.build_operators")
    tracer.wrap("tritherm.pipeline", "build_liouvillian", span_name="lindblad.build_liouvillian")
    tracer.wrap("tritherm.pipeline", "steady_state", span_name="lindblad.steady_state")
    tracer.wrap("tritherm.cli", "run_protocol", span_name="pipeline.run_protocol")
    for module in ("tritherm.cli", "tritherm.pipeline"):
        tracer.wrap(module, "calibrate_transitions", span_name="pipeline.calibrate_transitions")
    tracer.wrap("tritherm.pipeline", "run_rabi_calibration", span_name="pulses.calibration",
                attrs=lambda a, k: {"transition": a[1]})
    tracer.wrap("tritherm.pulses", "transfer_probability", span_name="pulses.transfer_eval")
    tracer.wrap("tritherm.pipeline", "apply_sequence_simulated", span_name="pulses.sequence",
                attrs=lambda a, k: {"label": a[1].label})
    # apply_sequence_simulated imports solve_ivp inside its body, so the
    # scipy attribute is what it sees on every call
    tracer.wrap("scipy.integrate", "solve_ivp", span_name="pulses.gate_integration",
                after=_ivp_counts)
    tracer.wrap("tritherm.pipeline", "synthesize_traces", span_name="readout.synthesize",
                after=_states_probed)
    tracer.wrap("tritherm.readout", "probe_propagator", span_name="readout.propagator",
                after=_propagator_bytes)
    tracer.wrap("tritherm.cli", "write_trace_csv", span_name="readout.csv_write")
    tracer.wrap("tritherm.cli", "read_trace_csv", span_name="readout.csv_read")
    tracer.wrap("tritherm.cli", "slope_bias_study", span_name="errorlab.slope_bias")
    tracer.wrap("tritherm.errorlab", "_fit_slope", count="errorlab.mc_fits")
    tracer.wrap("tritherm.cli", "temperature_discrepancy", span_name="errorlab.discrepancy")
