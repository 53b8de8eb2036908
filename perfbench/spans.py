"""Outside-in span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces every public function of the layer
modules, at every binding inside the ``pairedsurv.*`` modules, with a
wrapper that records a span (name, start, end, parent).  A call from one
module into another therefore nests under its caller, and a recursive
call nests under itself instead of being counted twice.  Spans stay in
memory; ``summary`` turns them into the per-layer metrics and
``write_spans`` dumps them when the run ends.

A layer's self time is the time of its spans minus the time of their
direct child spans.  A function the metrics are built on that no longer
exists leaves its metrics unmeasured (reported as 0 and listed), so later
renames do not crash the benchmark.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter

import numpy as np

PACKAGE = "pairedsurv"
LAYERS = ("simulate", "km", "scores", "overall", "mvnorm", "closed",
          "sensitivity", "design", "data", "cli")
ONLY = {"cli": ("main",)}
OP = "bench.op"
P_EVALS = ("sensitivity.time_specific_test", "overall.overall_test")

# name -> (unit, functions it needs); order is the output order.
METRICS = {
    "mvnorm.self_s": ("s", ("mvnorm",)),
    "mvnorm.mvn_cdf.calls": ("count", ("mvnorm.mvn_cdf",)),
    "mvnorm.mean_dim": ("dim", ("mvnorm.mvn_cdf",)),
    "mvnorm.accuracy_misses": ("count", ("mvnorm",)),
    "closed.self_s": ("s", ("closed",)),
    "closed.mvn_calls_per_test": ("calls/test", ("closed.closed_test", "mvnorm.mvn_cdf")),
    "scores.self_s": ("s", ("scores",)),
    "km.self_s": ("s", ("km",)),
    "scores.pseudo_observations.calls": ("count", ("scores.pseudo_observations",)),
    "km.event_table.calls": ("count", ("km.event_table",)),
    "scores.pseudo_calls_per_diff_matrix": (
        "calls/build", ("scores.pseudo_observations", "overall.diff_matrix")),
    "overall.self_s": ("s", ("overall",)),
    "overall.diff_matrix.calls": ("count", ("overall.diff_matrix",)),
    "overall.diff_matrix.builds_per_op": ("builds/op", ("overall.diff_matrix",)),
    "sensitivity.self_s": ("s", ("sensitivity",)),
    "sensitivity.p_evals_per_search": ("evals/search", ("sensitivity.sensitivity_value",)),
    "sensitivity.pvalue_montecarlo.self_s": ("s", ("sensitivity.pvalue_montecarlo",)),
    "simulate.self_s": ("s", ("simulate",)),
    "simulate.generate_pairs.calls": ("count", ("simulate.generate_pairs",)),
    "design.self_s": ("s", ("design",)),
    "data.self_s": ("s", ("data",)),
    "cli.self_s": ("s", ("cli",)),
}


def _dim(args, kwargs) -> int:
    upper = args[0] if args else kwargs.get("upper")
    return int(np.size(upper))


class SpanRecorder:
    """Spans of calls into the library's public functions, kept in memory."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.dims = {}
        self.accuracy_misses = 0
        self.wrapped = set()
        self.layers = set()
        self._stack = []

    def install(self):
        """Wrap the layer modules' public functions; call before building ops."""
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"{PACKAGE}.{layer}")))
            except ImportError:
                continue
        bindings = [m for name, m in sys.modules.items()
                    if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, module in modules:
            self.layers.add(layer)
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or fname not in ONLY.get(layer, (fname,))):
                    continue
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, fn)
                if layer == "mvnorm":
                    wrapper = self._wrap_mvnorm(wrapper)
                for mod in bindings:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                self.wrapped.add(span)

    def reset(self):
        """Forget spans recorded so far (set-up calls are not measured)."""
        for spans in (self.names, self.parents, self.starts, self.ends):
            spans.clear()
        self.dims.clear()
        self.accuracy_misses = 0

    def _wrap(self, name, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__doc__ = fn.__doc__
        return span

    def _wrap_mvnorm(self, span):
        """Entry into mvnorm from outside: record dimension and accuracy misses.

        Warnings raised inside are caught, counted and emitted again unchanged,
        so callers such as the CLI still see them.
        """
        names, stack = self.names, self._stack

        def entry(*args, **kwargs):
            if stack and names[stack[-1]].startswith("mvnorm."):
                return span(*args, **kwargs)
            self.dims[len(names)] = _dim(args, kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = span(*args, **kwargs)
            for w in caught:
                if w.category.__name__ == "AccuracyNotReached":
                    self.accuracy_misses += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        entry.__wrapped__ = span.__wrapped__
        entry.__name__ = span.__name__
        entry.__doc__ = span.__doc__
        return entry

    def run_op(self, fn):
        """Time one benchmark op as the root span its library calls nest under."""
        idx = len(self.starts)
        self.names.append(OP)
        self.parents.append(-1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _has_ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def summary(self, n_ops):
        """Per-layer metrics, their bases and the layers' shares of op time.

        Returns ``(metrics, notes)``: ``metrics`` maps name -> (value, unit),
        ``notes`` holds the ratio bases, shares and unmeasured names.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_by_layer = Counter()
        self_by_span = Counter()
        for i, name in enumerate(self.names):
            own = dur[i] - child[i]
            self_by_layer[name.split(".", 1)[0]] += own
            self_by_span[name] += own
        calls = Counter(self.names)
        op_time = sum(d for d, name in zip(dur, self.names) if name == OP)

        mvn_entries = [i for i in self.dims]
        closed_tests = calls["closed.closed_test"]
        closed_mvn = sum(1 for i in mvn_entries if self._has_ancestor(i, "closed.closed_test"))
        builds = calls["overall.diff_matrix"]
        pseudo_in_builds = sum(
            1 for i, name in enumerate(self.names)
            if name == "scores.pseudo_observations" and self._has_ancestor(i, "overall.diff_matrix"))
        searches = calls["sensitivity.sensitivity_value"]
        p_evals = sum(
            1 for i, name in enumerate(self.names)
            if name in P_EVALS and self.parents[i] >= 0
            and self.names[self.parents[i]] == "sensitivity.sensitivity_value")
        dims = list(self.dims.values())

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "mvnorm.self_s": self_by_layer["mvnorm"],
            "mvnorm.mvn_cdf.calls": calls["mvnorm.mvn_cdf"],
            "mvnorm.mean_dim": ratio(sum(dims), len(dims)),
            "mvnorm.accuracy_misses": self.accuracy_misses,
            "closed.self_s": self_by_layer["closed"],
            "closed.mvn_calls_per_test": ratio(closed_mvn, closed_tests),
            "scores.self_s": self_by_layer["scores"],
            "km.self_s": self_by_layer["km"],
            "scores.pseudo_observations.calls": calls["scores.pseudo_observations"],
            "km.event_table.calls": calls["km.event_table"],
            "scores.pseudo_calls_per_diff_matrix": ratio(pseudo_in_builds, builds),
            "overall.self_s": self_by_layer["overall"],
            "overall.diff_matrix.calls": builds,
            "overall.diff_matrix.builds_per_op": ratio(builds, n_ops),
            "sensitivity.self_s": self_by_layer["sensitivity"],
            "sensitivity.p_evals_per_search": ratio(p_evals, searches),
            "sensitivity.pvalue_montecarlo.self_s": self_by_span["sensitivity.pvalue_montecarlo"],
            "simulate.self_s": self_by_layer["simulate"],
            "simulate.generate_pairs.calls": calls["simulate.generate_pairs"],
            "design.self_s": self_by_layer["design"],
            "data.self_s": self_by_layer["data"],
            "cli.self_s": self_by_layer["cli"],
        }
        unmeasured = sorted(
            name for name, (_, needs) in METRICS.items()
            if any(need not in (self.layers if "." not in need else self.wrapped)
                   for need in needs))
        metrics = {name: (values[name], unit) for name, (unit, _) in METRICS.items()}
        notes = {
            "spans": n,
            "op_time_s": op_time,
            "unmeasured": unmeasured,
            "bases": {
                "mvnorm.mean_dim": f"{sum(dims)} dims / {len(dims)} mvnorm entries",
                "closed.mvn_calls_per_test":
                    f"{closed_mvn} mvnorm entries under closed_test / {closed_tests} closed_test calls",
                "scores.pseudo_calls_per_diff_matrix":
                    f"{pseudo_in_builds} pseudo_observations calls under diff_matrix / {builds} diff_matrix calls",
                "overall.diff_matrix.builds_per_op": f"{builds} diff_matrix calls / {n_ops} ops",
                "sensitivity.p_evals_per_search":
                    f"{p_evals} test evaluations / {searches} sensitivity_value calls",
            },
            "self_share": {
                layer: round(ratio(t, op_time), 4)
                for layer, t in sorted(self_by_layer.items(), key=lambda kv: -kv[1])
            },
        }
        return metrics, notes

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent"))
            writer.writerows(zip(self.names, self.starts, self.ends, self.parents))
