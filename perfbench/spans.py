"""Spans around xifamily's public functions, installed from outside.

The library has no timing hooks of its own, so the tracer replaces each
named function on every module namespace that holds it (``cli`` imports
``xi_plugin`` from ``estimator``, for instance, and calls its own binding)
and restores the originals on ``uninstall``. ``Kernel.eval`` and
``DistMap.eval`` are fields of frozen dataclasses; the factories that build
them are wrapped so that every kernel or map created while tracing comes
back as a ``dataclasses.replace`` copy with a timed ``eval``.

Spans are aggregated in memory per name (calls, inclusive and self time)
rather than logged one by one: a single screen op makes about 4000
kernel-eval calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter

#: layer -> public functions timed as spans, as "module.function" names.
SPANS = {
    "cli": ["main", "load_csv"],
    "cdf": ["resolve_dist_spec"],
    "kernels": ["normalization_constant", "integrate_unit_square"],
    "estimator": ["order_by_x", "ranks", "xi_plugin", "xi_rank", "xi_simplified",
                  "chatterjee_reference", "pearson", "spearman"],
    "inference": ["independence_test", "sigma2_ustat"],
    "simulate": ["replicate", "generate"],
}
#: Factories whose Kernel / DistMap results get a traced eval.
FACTORIES = {
    "kernels": ["make_kernel", "parse_kernel_spec", "custom_kernel"],
    "cdf": ["std_normal_map", "normal_map", "fit_normal_map", "uniform_map",
            "empirical_map", "resolve_dist_spec"],
}
#: Span groups whose time is reported as one layer metric.
GROUPS = {
    "estimator.xi_plugin": "estimator.coefficient",
    "estimator.xi_rank": "estimator.coefficient",
    "estimator.xi_simplified": "estimator.coefficient",
    "estimator.chatterjee_reference": "estimator.coefficient",
    "estimator.pearson": "estimator.baseline",
    "estimator.spearman": "estimator.baseline",
}
KERNEL_EVAL = "kernels.eval"
#: Kernel evaluations made by the C_h quadrature are kept apart from the
#: pair sums, so that kernels.eval counts only the coefficient's own work.
QUADRATURE_EVAL = "kernels.eval.quadrature"
MAP_EVAL = "cdf.map"
_MARK = "_perfbench_traced"


class Tracer:
    """Aggregated spans and work counts for one traced run."""

    def __init__(self):
        self._patched = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        """Forget every span and count recorded so far."""
        self.calls = Counter()
        self.total_ns = Counter()  # inclusive
        self.self_ns = Counter()  # inclusive minus direct child spans
        self.group_ns = Counter()  # outermost span of each group, inclusive
        self.counts = Counter()
        self._stack = []  # [name, child_ns] per open span
        self._group_depth = Counter()

    # ---------------------------------------------------------------- spans

    def _run(self, name, fn, args, kwargs):
        frame = [name, 0]
        group = GROUPS.get(name)
        self._stack.append(frame)
        if group:
            self._group_depth[group] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            self.calls[name] += 1
            self.total_ns[name] += elapsed
            self.self_ns[name] += elapsed - frame[1]
            if group:
                self._group_depth[group] -= 1
                if self._group_depth[group] == 0:
                    self.group_ns[group] += elapsed

    def span(self, name, fn):
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    def _traced_eval(self, fn, kind):
        def traced(*args):
            name = kind
            if kind == KERNEL_EVAL and self._stack and self._stack[-1][0] == "kernels.integrate_unit_square":
                name = QUADRATURE_EVAL
            result = self._run(name, fn, args, {})
            self.counts[name + ".values"] += getattr(result, "size", 1)
            return result

        setattr(traced, _MARK, True)
        return traced

    def bind(self, obj):
        """A copy of a Kernel or DistMap whose eval is timed (idempotent)."""
        if obj is None or getattr(obj.eval, _MARK, False):
            return obj
        kind = KERNEL_EVAL if type(obj).__name__ == "Kernel" else MAP_EVAL
        return dataclasses.replace(obj, eval=self._traced_eval(obj.eval, kind))

    def _factory(self, fn):
        def traced(*args, **kwargs):
            return self.bind(fn(*args, **kwargs))

        return traced

    # ------------------------------------------------------------- patching

    def install(self, package):
        """Patch every namespace of ``package`` that binds a traced name.

        Returns the "module.function" names that could not be found.
        """
        layers = {m: importlib.import_module(f"{package.__name__}.{m}") for m in SPANS}
        missing = []
        wrappers = {}
        for layer, names in SPANS.items():
            for fname in names:
                original = getattr(layers[layer], fname, None)
                if original is None:
                    missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.span(f"{layer}.{fname}", original)
                if fname == "load_csv":
                    wrapped = self._counting_load_csv(wrapped)
                if fname in FACTORIES.get(layer, ()):
                    wrapped = self._factory(wrapped)
                wrappers[id(original)] = (original, wrapped)
        for layer, names in FACTORIES.items():
            for fname in names:
                original = getattr(layers[layer], fname, None)
                if original is not None and id(original) not in wrappers:
                    wrappers[id(original)] = (original, self._factory(original))
        for module in [package, *layers.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return missing

    def _counting_load_csv(self, fn):
        def traced(*args, **kwargs):
            table = fn(*args, **kwargs)
            self.counts["cli.load_csv.cells"] += table.n_rows * len(table.headers)
            return table

        return traced

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
