"""Spans and work counts recorded from outside the library.

A :class:`Tracer` times calls into each layer's public functions and counts
work with wrappers around the inputs those calls receive:

* drivers are replaced by counting subclasses of ``AtomPath``,
  ``MeasurePath`` and ``SemicircleFamily`` (so the library's ``isinstance``
  checks still pass) that count right-hand-side evaluations (``cauchy``) and
  driver position lookups (``AtomPath.u``);
* the map handed to ``invert_stieltjes`` is replaced by an ``AnalyticMap``
  whose ``fn`` counts evaluations, and the leaves the expression parser builds
  count their own evaluations.

While installed, the tracer swaps the boundary names listed in
:meth:`Tracer._boundaries` for span wrappers, in the package namespace (calls
the benchmark makes) and in the module namespaces where one layer calls
another (calls the library makes).  :meth:`Tracer.remove` restores every name.
Nothing under ``src/`` changes; the wrappers only forward, so values are
bit-identical (``check.py`` verifies this).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: the layers spans are recorded for (`measures` is touched only at set-up)
LAYERS = ("flows", "transforms", "convolve", "evolution", "cli")

#: the work counters a traced pass keeps
COUNTS = ("rhs", "u", "map", "leaf")


def _points(z) -> int:
    # one evaluation per point, so array-valued calls count every lane
    return 1 if type(z) is complex or type(z) is float else int(np.size(z))


class Stats:
    """Aggregates of one traced pass."""

    def __init__(self):
        self.layer_self = defaultdict(float)
        # (op, span name) -> {"calls", "time", "self_time", counts..., "nodes", "atoms"}
        self.fn = defaultdict(lambda: defaultdict(float))
        self.totals = dict.fromkeys(COUNTS, 0)
        self.op_time = {}

    def sum(self, span: str, key: str, op: str | None = None) -> float:
        return sum(v[key] for (o, name), v in self.fn.items()
                   if name == span and (op is None or o == op))


class Tracer:
    """Layer spans and work counters for the loewner package ``lib``."""

    def __init__(self, lib):
        self.lib = lib
        self.counts = dict.fromkeys(COUNTS, 0)
        self.stats = Stats()
        self.op = None
        self._stack = []
        self._saved = []
        self._counting_types = self._make_counting_types()

    # -- counting inputs ---------------------------------------------------

    def _make_counting_types(self):
        flows = self.lib.flows
        counts = self.counts

        class CountingAtomPath(flows.AtomPath):
            def cauchy(self, t, z):
                counts["rhs"] += _points(z)
                return super().cauchy(t, z)

            def u(self, t):
                counts["u"] += _points(t)
                return super().u(t)

        class CountingMeasurePath(flows.MeasurePath):
            def cauchy(self, t, z):
                counts["rhs"] += _points(z)
                return super().cauchy(t, z)

        class CountingSemicircleFamily(flows.SemicircleFamily):
            def cauchy(self, t, z):
                counts["rhs"] += _points(z)
                return super().cauchy(t, z)

        return {
            flows.AtomPath: lambda d: CountingAtomPath(d.times, d.values),
            flows.MeasurePath: lambda d: CountingMeasurePath(d.breakpoints, d.measures),
            flows.SemicircleFamily: lambda d: CountingSemicircleFamily(),
        }

    def driver(self, d):
        """Counting twin of driver ``d`` (``d`` itself if already counting or unknown)."""
        make = self._counting_types.get(type(d))
        return make(d) if make else d

    def analytic_map(self, g, counter: str = "map"):
        """``AnalyticMap`` equal to ``g`` whose evaluations bump ``counter``."""
        fn, counts = g.fn, self.counts
        if getattr(fn, "counter", None) == counter:
            return g

        def counted(z):
            counts[counter] += _points(z)
            return fn(z)

        counted.counter = counter
        return self.lib.transforms.AnalyticMap(g.kind, counted, mean=g.mean,
                                               variance=g.variance, domain=g.domain)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str, nodes: int = 0):
        """Time the enclosed call as ``name`` in ``layer``; yields a dict for the result."""
        frame = {"child_time": 0.0, "child": dict.fromkeys(COUNTS, 0), "result": None}
        before = dict(self.counts)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield frame
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            incl = {k: self.counts[k] - before[k] for k in COUNTS}
            self.stats.layer_self[layer] += elapsed - frame["child_time"]
            if self._stack:
                parent = self._stack[-1]
                parent["child_time"] += elapsed
                for k in COUNTS:
                    parent["child"][k] += incl[k]
            result = frame["result"]
            if name == "flow_forward" and result is not None:
                name = "flow_forward.alive" if result.alive else "flow_forward.swallowed"
            agg = self.stats.fn[(self.op, name)]
            agg["calls"] += 1
            agg["time"] += elapsed
            agg["self_time"] += elapsed - frame["child_time"]
            for k in COUNTS:
                agg[k] += incl[k] - frame["child"][k]
                agg["incl_" + k] += incl[k]
            agg["nodes"] += nodes
            if result is not None and hasattr(result, "atoms") and hasattr(result, "values"):
                agg["atoms"] += len(result.atoms)

    def _wrap(self, fn, layer: str, name: str, arg0: str | None):
        tracer = self

        def traced(*args, **kwargs):
            if args and arg0 == "driver":
                args = (tracer.driver(args[0]),) + args[1:]
            elif args and arg0 == "map":
                args = (tracer.analytic_map(args[0]),) + args[1:]
            nodes = int(np.size(args[1])) if arg0 == "map" and len(args) > 1 else 0
            with tracer.span(layer, name, nodes) as frame:
                frame["result"] = fn(*args, **kwargs)
            return frame["result"]

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn):
        tracer = self

        def leaf(*args, **kwargs):
            return tracer.analytic_map(fn(*args, **kwargs), "leaf")

        leaf.__wrapped__ = fn
        return leaf

    def _boundaries(self):
        """(namespace, attribute, layer, first-argument kind) for every traced name."""
        lib = self.lib
        table = []
        for ns in (lib, lib.cli):
            table += [(ns, name, "flows", "driver")
                      for name in ("flow_forward", "flow_reverse", "trace", "welding")]
            table += [(ns, "invert_stieltjes", "transforms", "map"),
                      (ns, "parse_expression", "convolve", None),
                      (ns, "burgers_residual", "evolution", "driver")]
            table += [(ns, name, "evolution", "driver")
                      for name in ("monotone_family", "anti_monotone_family", "free_family")]
        table += [(lib, "materialize", "convolve", "map"),
                  (lib.flows, "flow_forward", "flows", "driver"),
                  (lib.flows, "inverse_map", "flows", "driver"),
                  (lib.evolution, "invert_stieltjes", "transforms", "map"),
                  (lib.convolve, "invert_stieltjes", "transforms", "map")]
        table += [(lib.evolution, name, "flows", "driver")
                  for name in ("flow_reverse", "flow_reverse_anti", "inverse_map")]
        family = lib.evolution.EvolutionFamily
        table += [(family, name, "evolution", None) for name in ("measure", "eval", "__call__")]
        return table

    def install(self):
        """Swap every boundary name for its span wrapper."""
        for ns, attr, layer, arg0 in self._boundaries():
            fn = getattr(ns, attr, None)
            if fn is None:
                continue
            self._saved.append((ns, attr, fn))
            name = "eval" if attr == "__call__" else attr
            setattr(ns, attr, self._wrap(fn, layer, name, arg0))
        leaf = getattr(self.lib.convolve, "cauchy", None)
        if leaf is not None:
            self._saved.append((self.lib.convolve, "cauchy", leaf))
            self.lib.convolve.cauchy = self._wrap_leaf(leaf)

    def remove(self):
        """Restore every swapped name."""
        while self._saved:
            ns, attr, fn = self._saved.pop()
            setattr(ns, attr, fn)

    def begin_pass(self):
        self.stats = Stats()
        self._pass_start = dict(self.counts)

    def end_pass(self) -> Stats:
        self.stats.totals = {k: self.counts[k] - self._pass_start[k] for k in COUNTS}
        return self.stats
