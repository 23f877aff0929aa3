"""Per-layer tracing of slotmesh from outside the package.

The tracer wraps the public functions of each module by replacing module
attributes. ``network`` and ``cli`` import ``evaluate_node``,
``validate``, ``evaluate_network`` and ``generate`` by name, so every
slotmesh module attribute bound to a wrapped function is replaced, not
only the defining one. Spans (name, start, end, parent, root) are kept in
memory and written out at the end of the run; a span's self time is its
duration minus the durations of its child spans. ``arrival_pmf`` is
called about 200k times per rings-3 evaluation, so it gets aggregated
counters (split by calling layer) instead of spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> layer name
SPANNED = {
    ("queuemodel", "build_chain"): "queuemodel.build_chain",
    ("queuemodel", "acceptance_probability"): "queuemodel.metrics",
    ("queuemodel", "expected_delay"): "queuemodel.metrics",
    ("queuemodel", "transmission_probability"): "queuemodel.metrics",
    ("queuemodel", "queue_marginals"): "queuemodel.metrics",
    ("queuemodel", "evaluate_node"): "queuemodel.evaluate_node",
    ("stationary", "solve"): "stationary.solve",
    ("network", "evaluate_network"): "network.evaluate_network",
    ("schedulers", "generate"): "schedulers.generate",
    ("schedule", "validate"): "schedule.validate",
    ("schedule", "save_schedule"): "schedule.io",
    ("schedule", "load_schedule"): "schedule.io",
    ("schedule", "save_topology"): "schedule.io",
    ("schedule", "load_topology"): "schedule.io",
    ("simulate", "simulate_network"): "simulate.simulate_network",
    ("cli", "main"): "cli.main",
}
COUNTED = ("queuemodel", "arrival_pmf")

# name -> unit, better; every workload reports all of them
LAYER_METRICS = {
    "queuemodel.arrival_pmf.calls": ("count", "lower"),
    "queuemodel.arrival_pmf.calls_build_chain": ("count", "lower"),
    "queuemodel.arrival_pmf.calls_metrics": ("count", "lower"),
    "queuemodel.arrival_pmf.self_s": ("s", "lower"),
    "queuemodel.build_chain.calls": ("count", "lower"),
    "queuemodel.build_chain.self_s": ("s", "lower"),
    "queuemodel.build_chain.states": ("count", "lower"),
    "queuemodel.build_chain.nnz": ("count", "lower"),
    "queuemodel.metrics.self_s": ("s", "lower"),
    "queuemodel.evaluate_node.calls": ("count", "lower"),
    "queuemodel.evaluate_node.self_s": ("s", "lower"),
    "stationary.solve.calls": ("count", "lower"),
    "stationary.solve.self_s": ("s", "lower"),
    "stationary.solve.iterations": ("count", "lower"),
    "stationary.solve.iterations_max": ("count", "lower"),
    "stationary.solve.residual_max": ("1", "lower"),
    "stationary.solve.failed": ("count", "lower"),
    "stationary.recurrent_ratio": ("ratio", "higher"),
    "network.evaluate_network.calls": ("count", "lower"),
    "network.evaluate_network.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "schedulers.generate.self_s": ("s", "lower"),
    "schedule.validate.calls": ("count", "lower"),
    "schedule.validate.self_s": ("s", "lower"),
    "schedule.io.self_s": ("s", "lower"),
    "simulate.simulate_network.self_s": ("s", "lower"),
    "simulate.generated": ("count", "higher"),
    "simulate.delivered": ("count", "higher"),
    "simulate.dropped": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
TIMES = {name for name, (unit, _) in LAYER_METRICS.items() if unit == "s"}


class Tracer:
    """Installs wrappers into the loaded slotmesh modules while active."""

    def __init__(self):
        self.spans: list[tuple] = []
        # open spans: [layer, start, child seconds, span id, root span id]
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        self.maxima = defaultdict(float)

    # -- installation -------------------------------------------------
    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "slotmesh"
                                         or name.startswith("slotmesh."))]
        targets = dict(SPANNED)
        targets[COUNTED] = None
        for (module_name, function_name), layer in targets.items():
            original = getattr(sys.modules[f"slotmesh.{module_name}"], function_name)
            wrapper = (self._counted(original) if layer is None
                       else self._spanned(original, layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------
    def _spanned(self, function, layer):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][3] if stack else None
            root = stack[-1][4] if stack else span_id
            self.spans.append(None)
            frame = [layer, time.perf_counter(), 0.0, span_id, root]
            stack.append(frame)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            except Exception:
                self.calls[layer + ".failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                self.spans[span_id] = (layer, frame[1], end, parent, root)
                if result is not None:
                    self._observe(layer, result)

        return wrapper

    def _counted(self, function):
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                caller = stack[-1][0] if stack else "other"
                self.calls["queuemodel.arrival_pmf." + caller] += 1
                self.self_s["queuemodel.arrival_pmf"] += duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _observe(self, layer, result):
        # getattr defaults keep tracing alive if a result type loses a field
        if layer == "queuemodel.build_chain":
            self.values["build_chain.states"] += getattr(result, "n_states", 0)
            matrix = getattr(result, "transition_matrix", None)
            self.values["build_chain.nnz"] += getattr(matrix, "nnz", 0)
        elif layer == "stationary.solve":
            iterations = getattr(result, "iterations", 0)
            self.values["solve.iterations"] += iterations
            self.maxima["solve.iterations"] = max(
                self.maxima["solve.iterations"], iterations)
            self.maxima["solve.residual"] = max(
                self.maxima["solve.residual"], getattr(result, "residual", 0.0))
            reachable = getattr(result, "reachable", None)
            if reachable is not None:
                self.values["solve.reachable"] += int(reachable.sum())
                self.values["solve.states"] += reachable.size
        elif layer == "simulate.simulate_network":
            for counts in getattr(result, "counts", ()):
                self.values["simulate.generated"] += counts.generated
                self.values["simulate.delivered"] += counts.delivered
                self.values["simulate.dropped"] += counts.dropped

    # -- per-pass snapshot --------------------------------------------
    def take(self, factor: float) -> dict:
        """Layer metrics accumulated since the last call; times are scaled
        by the pass's host-speed factor."""
        calls, self_s, values, maxima = (self.calls, self.self_s,
                                         self.values, self.maxima)
        pmf_build = calls["queuemodel.arrival_pmf.queuemodel.build_chain"]
        pmf_metrics = calls["queuemodel.arrival_pmf.queuemodel.metrics"]
        pmf_all = sum(v for k, v in calls.items()
                      if k.startswith("queuemodel.arrival_pmf."))
        states = values["solve.states"]
        out = {
            "queuemodel.arrival_pmf.calls": pmf_all,
            "queuemodel.arrival_pmf.calls_build_chain": pmf_build,
            "queuemodel.arrival_pmf.calls_metrics": pmf_metrics,
            "queuemodel.arrival_pmf.self_s": self_s["queuemodel.arrival_pmf"],
            "queuemodel.build_chain.calls": calls["queuemodel.build_chain"],
            "queuemodel.build_chain.self_s": self_s["queuemodel.build_chain"],
            "queuemodel.build_chain.states": values["build_chain.states"],
            "queuemodel.build_chain.nnz": values["build_chain.nnz"],
            "queuemodel.metrics.self_s": self_s["queuemodel.metrics"],
            "queuemodel.evaluate_node.calls": calls["queuemodel.evaluate_node"],
            "queuemodel.evaluate_node.self_s": self_s["queuemodel.evaluate_node"],
            "stationary.solve.calls": calls["stationary.solve"],
            "stationary.solve.self_s": self_s["stationary.solve"],
            "stationary.solve.iterations": values["solve.iterations"],
            "stationary.solve.iterations_max": maxima["solve.iterations"],
            "stationary.solve.residual_max": maxima["solve.residual"],
            "stationary.solve.failed": calls["stationary.solve.failed"],
            "stationary.recurrent_ratio": (values["solve.reachable"] / states
                                           if states else 0.0),
            "network.evaluate_network.calls": calls["network.evaluate_network"],
            "network.evaluate_network.self_s": self_s["network.evaluate_network"],
            "cli.main.self_s": self_s["cli.main"],
            "schedulers.generate.self_s": self_s["schedulers.generate"],
            "schedule.validate.calls": calls["schedule.validate"],
            "schedule.validate.self_s": self_s["schedule.validate"],
            "schedule.io.self_s": self_s["schedule.io"],
            "simulate.simulate_network.self_s": self_s["simulate.simulate_network"],
            "simulate.generated": values["simulate.generated"],
            "simulate.delivered": values["simulate.delivered"],
            "simulate.dropped": values["simulate.dropped"],
        }
        for name in TIMES & out.keys():
            out[name] *= factor
        self._reset()
        return out
