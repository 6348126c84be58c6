"""Spans and counters around the package's public functions.

`instrument(tracer)` replaces each function listed in TRACED with a wrapper
that opens a span on entry and closes it on exit, in every ``carleman``
module that holds a reference to it, and returns a function that restores
the originals.  Nothing under ``src/`` changes.  Each span records its name,
start, end, parent span and the op it belongs to; a span's self time is its
duration minus the durations of its direct children.

Integrand evaluations happen inside `quadrature.integrate` and are counted
(by wrapping the callable passed in) but not timed, so the engine's time
includes the integrands it evaluates.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Span names, as "module.function" under the package, of the traced calls.
TRACED = (
    "coefficients.CoefficientTable.from_recurrence",
    "coefficients.CoefficientTable.from_series_oracle",
    "coefficients.oracle_equivalence_check",
    "coefficients.bound_check",
    "coefficients.monotonicity_check",
    "coefficients.ratio_trend_check",
    "rational.rational_str",
    "rational.as_rational",
    "quadrature.integrate",
    "integrands.scaled_defect_by_quadrature",
    "moments.coefficient_by_moment",
    "moments.coefficient_by_parts",
    "moments.scaled_derivative_moment",
    "moments.density_identity_checks",
    "refinement.refinement_factor",
    "refinement.carleman_demo",
    "refinement.tail_bound",
    "refinement.truncation_gap",
    "verify.run_verification",
    "report.VerificationReport.to_json",
    "cli.main",
)

LAYERS = ("coefficients", "rational", "quadrature", "integrands", "moments",
          "refinement", "verify", "report", "cli")

#: Spans kept for the trace file; beyond this only the totals are updated.
MAX_SPANS = 100_000


def span_key(traced: str) -> str:
    """Metric prefix of a traced name: the class name is dropped."""
    parts = traced.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """In-memory spans plus per-name busy time, self time and call counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = -1  # op index that new spans belong to; -1 is set-up
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.dropped = 0
        self._next_id = 0
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = {}
        self._stack = []  # open frames: [name, start_ns, child_ns, id, parent_id]

    def enter(self, name: str):
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, self.clock(), 0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        name, start, child_ns, span_id, parent = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        self.busy_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def maximum(self, name: str, value: float):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def layer_self_s(self) -> dict:
        """Self time per layer, summed over the traced names in each module."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += ns / 1e9
        return out

    def to_dict(self) -> dict:
        return {
            "spans_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "busy_s": {k: v / 1e9 for k, v in self.busy_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }


def _entry_bits(table) -> int:
    return max(
        int(v.numerator).bit_length() + int(v.denominator).bit_length() for v in table.values
    )


def _after_table(tracer, result):
    tracer.counters["coefficients.entries_built"] += result.max_n
    tracer.maximum("coefficients.max_entry_bits", _entry_bits(result))


def _after_integrate(tracer, result):
    tracer.counters["quadrature.levels"] += result.levels_used
    tracer.counters["quadrature.nonconverged"] += not result.converged
    tracer.maximum("quadrature.max_error_estimate", result.error_estimate)


def _after_factor(tracer, result):
    tracer.counters["refinement.refinement_factor.exact_calls"] += result.exact_value is not None


def _after_to_json(tracer, result):
    tracer.counters["report.json_bytes"] += len(result)


#: Counters updated from a traced call's result, outside its span.
AFTER = {
    "coefficients.from_recurrence": _after_table,
    "coefficients.from_series_oracle": _after_table,
    "quadrature.integrate": _after_integrate,
    "refinement.refinement_factor": _after_factor,
    "report.to_json": _after_to_json,
}


def _wrap(tracer: Tracer, name: str, fn):
    after = AFTER.get(name)
    enter, exit_ = tracer.enter, tracer.exit

    if name == "quadrature.integrate":
        def traced(func, *args, **kwargs):
            count = 0

            def counted(s):
                nonlocal count
                count += 1
                return func(s)

            frame = enter(name)
            try:
                result = fn(counted, *args, **kwargs)
            finally:
                exit_(frame)
                tracer.counters["quadrature.evaluations"] += count
            after(tracer, result)
            return result
    else:
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after:
                after(tracer, result)
            return result

    return functools.wraps(fn)(traced)


def instrument(tracer: Tracer):
    """Route every TRACED function through `tracer`; returns the undo function."""
    modules = [
        module for name, module in list(sys.modules.items())
        if name == "carleman" or name.startswith("carleman.")
    ]
    undo = []
    for traced_name in TRACED:
        module_name, *owner_path, attr = traced_name.split(".")
        owner = sys.modules[f"carleman.{module_name}"]
        for part in owner_path:
            owner = getattr(owner, part)
        name = span_key(traced_name)
        if owner_path:
            # A method or classmethod: patch the class, which every module shares.
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                replacement = _wrap(tracer, name, raw)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, raw))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore():
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return restore


#: Traced names reported by busy time (".s"), self time (".self_s") and calls.
BUSY = (
    "cli.import", "coefficients.from_recurrence", "coefficients.from_series_oracle",
    "coefficients.oracle_equivalence_check", "coefficients.bound_check",
    "coefficients.monotonicity_check", "coefficients.ratio_trend_check",
    "quadrature.integrate", "moments.coefficient_by_moment", "moments.coefficient_by_parts",
    "moments.scaled_derivative_moment", "moments.density_identity_checks",
    "refinement.refinement_factor", "refinement.tail_bound", "refinement.truncation_gap",
    "report.to_json", "rational.rational_str",
)
SELF = ("integrands.scaled_defect_by_quadrature", "refinement.carleman_demo",
        "verify.run_verification", "cli.main")
CALLED = ("coefficients.from_recurrence", "coefficients.from_series_oracle",
          "quadrature.integrate", "refinement.refinement_factor")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values a traced run reports, by metric name."""
    counters = tracer.counters
    integrals = tracer.calls["quadrature.integrate"]
    metrics = {name + ".s": tracer.busy_ns[name] / 1e9 for name in BUSY}
    metrics.update({name + ".self_s": tracer.self_ns[name] / 1e9 for name in SELF})
    metrics.update({name + ".calls": tracer.calls[name] for name in CALLED})
    metrics.update({layer + ".self_s": s for layer, s in tracer.layer_self_s().items()})
    for name in ("coefficients.max_entry_bits", "quadrature.max_error_estimate",
                 "moments.max_abs_err"):
        metrics[name] = tracer.maxima.get(name, 0)
    for name in ("coefficients.entries_built", "quadrature.evaluations",
                 "quadrature.nonconverged", "refinement.refinement_factor.exact_calls",
                 "report.json_bytes"):
        metrics[name] = counters[name]
    metrics["quadrature.levels_mean"] = counters["quadrature.levels"] / integrals if integrals else 0.0
    return metrics
