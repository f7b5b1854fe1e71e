"""Spans around legendreflow's layers, installed from the benchmark's side.

``Tracer.install()`` replaces every public function of the traced modules
(and the methods of the classes they define) with a wrapper that records a
span: function, start, end and parent span. The wrapper also replaces each
name that another module imported, such as ``cusps.evolve_beta``, so calls
between layers are seen. A few scipy names the library imports are counted
without a span. Nothing under ``src/`` changes.

Spans are kept in compact arrays and written out when the run ends. Self
time, a span minus its direct child spans, is summed per function as spans
close and handed out per operation by ``take_op()``.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("curves", "spectral", "selfsimilar", "cusps", "asymptotics",
          "reparam", "fd", "curveio", "cli")
# private functions whose time a layer metric names
PRIVATE = {"cusps": ("_refine_witness",)}
# foreign functions counted where a layer calls them, without a span
COUNT_ONLY = {"cusps": ("brentq", "least_squares")}

EVAL = ("spectral.evolve_beta", "spectral.evolve_beta_derivative",
        "spectral.evolve_beta_time_derivative")
RECONSTRUCT = ("spectral.reconstruct_initial_curve",
               "spectral.reconstruct_centered_curve",
               "spectral.position_increment")


def _eval_points(tracer, args, kwargs, result):
    u = args[2] if len(args) > 2 else kwargs["u"]
    tracer.counters["spectral.eval_points"] += np.size(u)


def _find_zeros(tracer, args, kwargs, result):
    tracer.counters["cusps.zeros_found"] += result.count
    if any(frame[2] == tracer.ids["cusps.detect_strict_decrease"]
           for frame in tracer.stack):
        tracer.counters["cusps.event_find_zeros"] += 1


def _detect(tracer, args, kwargs, result):
    tracer.counters["cusps.events"] += len(result)


def _fit(tracer, args, kwargs, result):
    times = args[2] if len(args) > 2 else kwargs.get("times")
    last = 6.0 if times is None else float(np.asarray(times)[-1])
    if result.errors and result.errors[-1][0] != last:
        tracer.counters["asymptotics.fit_retries"] += 1


def _write_csv(tracer, args, kwargs, result):
    tracer.counters["curveio.write_bytes"] += os.path.getsize(result)


def _read_csv(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counters["curveio.read_bytes"] += os.path.getsize(path)


def _count_phi_steps(tracer, args, kwargs):
    """Wrap the l field of solve_phi_fd: it is evaluated once per step."""
    ell_field = args[1]

    def counted(u, t):
        tracer.counters["fd.phi_steps"] += 1
        return ell_field(u, t)

    return (args[0], counted) + tuple(args[2:]), kwargs


AFTER = {name: _eval_points for name in EVAL}
AFTER.update({"cusps.find_zeros": _find_zeros,
              "cusps.detect_strict_decrease": _detect,
              "asymptotics.fit_decay_rate": _fit,
              "curveio.write_curve_csv": _write_csv,
              "curveio.read_curve_csv": _read_csv})
BEFORE = {"fd.solve_phi_fd": _count_phi_steps}


class Tracer:
    """Span recorder for one process; it records between install() and uninstall()."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_fn = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.op_first_span = array.array("i")
        self.stack = []          # [span index, child seconds, function id]
        self._patches = []
        self._reset_op()

    def _reset_op(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(float)

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _span(self, fn, name):
        fn_id = self._id(name)
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            stack = tracer.stack
            index = len(tracer.span_fn)
            tracer.span_fn.append(fn_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0, fn_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.span_start.append(start)
                tracer.span_end.append(end)
                duration = end - start
                tracer.calls[name] += 1
                tracer.incl_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function and every module-level name bound to it."""
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"legendreflow.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))):
                    replace[obj] = self._span(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth == "__post_init__"):
                            wrapped = self._span(fn, f"{layer}.{obj.__name__}.{meth}")
                            self._patches.append((obj, meth, fn))
                            setattr(obj, meth, wrapped)
            for attr in COUNT_ONLY.get(layer, ()):
                replace[getattr(module, attr)] = self._counter(getattr(module, attr),
                                                              f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "legendreflow" or mod_name.startswith("legendreflow."):
                for attr, obj in list(vars(module).items()):
                    if callable(obj) and obj in replace:
                        self._patches.append((module, attr, obj))
                        setattr(module, attr, replace[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def begin_op(self):
        self.op_first_span.append(len(self.span_fn))

    def take_op(self):
        """Raw per-function totals of the operation just finished, then reset."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "incl_s": dict(self.incl_s), "counters": dict(self.counters)}
        self._reset_op()
        return out

    def write_spans(self, path):
        """All spans of the run, times relative to the first span's start."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path, names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            op_first_span=np.frombuffer(self.op_first_span, dtype=np.int32))


class LayerTotals:
    """Per-function totals over the traced operations, in reference seconds."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.import_s = []

    def add(self, op, factor):
        self.ops += 1
        for name, value in op["calls"].items():
            self.calls[name] += value
        for name, value in op["self_s"].items():
            self.self_s[name] += value * factor
        for name, value in op["incl_s"].items():
            self.incl_s[name] += value * factor
        for name, value in op["counters"].items():
            self.counters[name] += value

    def _sum(self, table, names):
        return sum(table.get(name, 0) for name in names)

    def _layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self, overhead_pct):
        """Every per-layer metric, per traced operation unless its unit says
        otherwise."""
        ops = max(self.ops, 1)
        c = self.counters
        eval_calls = self._sum(self.calls, EVAL)
        events = c.get("cusps.events", 0)
        phi_time = self.incl_s.get("fd.solve_phi_fd", 0.0)
        values = {
            "spectral.eval_calls": (eval_calls / ops, "1/op"),
            "spectral.eval_points_per_call": (
                c.get("spectral.eval_points", 0) / eval_calls if eval_calls else 0.0,
                "points"),
            "spectral.eval_self_s": (self._sum(self.self_s, EVAL) / ops, "s/op"),
            "spectral.evolve_curve_self_s": (
                self.self_s.get("spectral.evolve_curve", 0.0) / ops, "s/op"),
            "spectral.reconstruct_self_s": (
                self._sum(self.self_s, RECONSTRUCT) / ops, "s/op"),
            "cusps.find_zeros_calls": (self.calls.get("cusps.find_zeros", 0) / ops, "1/op"),
            "cusps.find_zeros_self_s": (
                self.self_s.get("cusps.find_zeros", 0.0) / ops, "s/op"),
            "cusps.brentq_calls": (c.get("cusps.brentq_calls", 0) / ops, "1/op"),
            "cusps.calls_per_event": (
                c.get("cusps.event_find_zeros", 0) / events if events else 0.0,
                "1/event"),
            "cusps.witness_self_s": (
                self.self_s.get("cusps._refine_witness", 0.0) / ops, "s/op"),
            "cusps.zeros_found": (c.get("cusps.zeros_found", 0) / ops, "1/op"),
            "asymptotics.scaled_error_calls": (
                self.calls.get("asymptotics.scaled_error", 0) / ops, "1/op"),
            "asymptotics.scaled_error_self_s": (
                self.self_s.get("asymptotics.scaled_error", 0.0) / ops, "s/op"),
            "asymptotics.fit_retries": (c.get("asymptotics.fit_retries", 0) / ops, "1/op"),
            "selfsimilar.profile_position_calls": (
                self.calls.get("selfsimilar.profile_position", 0) / ops, "1/op"),
            "selfsimilar.self_s": (self._layer_self("selfsimilar") / ops, "s/op"),
            "reparam.self_s": (self._layer_self("reparam") / ops, "s/op"),
            "curves.self_s": (self._layer_self("curves") / ops, "s/op"),
            "fd.solve_beta_self_s": (self.self_s.get("fd.solve_beta_fd", 0.0) / ops, "s/op"),
            "fd.solve_phi_self_s": (self.self_s.get("fd.solve_phi_fd", 0.0) / ops, "s/op"),
            "fd.phi_steps_per_s": (
                c.get("fd.phi_steps", 0) / phi_time if phi_time else 0.0, "1/s"),
            "curveio.write_self_s": (self._sum(self.self_s, (
                "curveio.write_curve_csv", "curveio.render_svg")) / ops, "s/op"),
            "curveio.write_mb": (c.get("curveio.write_bytes", 0) / 1e6 / ops, "MB/op"),
            "curveio.read_self_s": (
                self.self_s.get("curveio.read_curve_csv", 0.0) / ops, "s/op"),
            "curveio.read_mb": (c.get("curveio.read_bytes", 0) / 1e6 / ops, "MB/op"),
            "curveio.manifest_self_s": (self._sum(self.self_s, (
                "curveio.write_manifest", "curveio.sha256_of")) / ops, "s/op"),
            "cli.import_s": (float(np.median(self.import_s)) if self.import_s else 0.0, "s"),
            "cli.self_s": (self._layer_self("cli") / ops, "s/op"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}
