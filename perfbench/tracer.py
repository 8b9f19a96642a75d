"""Span tracer installed from outside the library.

Each public function named in ``TARGETS`` is replaced, in every ``resgraph``
module namespace that binds it, by a wrapper that records one span: its
name, start, end, whether it returned, and the span that caused it (the
innermost span still open).  Rebinding every namespace matters because
modules call one another through their own globals: ``embedded`` imports
``counting_Q`` and ``fitted_qp_value`` by name, and ``counting`` reaches
``quasipoly_value`` and ``sw_norm`` through its module dictionary.

Spans stay in memory as parallel lists and are written once, when the pass
ends.  A layer's self time is the time its spans cover minus the time their
child spans cover; a function with no span is charged to its caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (module under resgraph, function, layer)
TARGETS = [
    ("graphs", "parse_graph", "graphs"),
    ("graphs", "ResolutionGraph.build", "graphs"),
    ("graphs", "laufer_saturate", "graphs"),
    ("graphs", "min_antinef_rep", "graphs"),
    ("graphs", "artin_rationality", "graphs"),
    ("graphs", "subgraph_components", "graphs"),
    ("graphs", "strict_interior_cycle", "graphs"),
    ("snf", "int_det", "graphs"),
    ("snf", "leading_principal_minors", "graphs"),
    ("snf", "smith_normal_form", "graphs"),
    ("snf", "unimodular_inverse", "graphs"),
    ("snf", "fraction_inverse", "graphs"),
    ("series", "build_zeta", "series"),
    ("series", "expand", "series"),
    ("series", "h_part", "series"),
    ("series", "reduce_to", "series"),
    ("counting", "counting_q", "counting.point"),
    ("counting", "counting_Q", "counting.point"),
    ("counting", "quasipoly_value", "counting.fit"),
    ("counting", "fitted_qp_value", "counting.fit"),
    ("counting", "sw_norm", "counting.sw"),
    ("counting", "counting_qp_closed", "counting.closed"),
    ("counting", "modified_qp_closed", "counting.closed"),
    ("counting", "periodic_constant_full", "counting.closed"),
    ("embedded", "verify_twisted_duality", "embedded"),
    ("embedded", "delta_cross_check", "embedded"),
    ("embedded", "delta_embedded", "embedded"),
    ("embedded", "kappa_topological", "embedded"),
    ("curves", "hilbert_table", "curves.hilbert"),
    ("curves", "poincare_series", "curves.poincare"),
    ("curves", "verify_inversion", "curves.inversion"),
]

LAYERS = ["graphs", "series", "counting.point", "counting.fit", "counting.sw",
          "counting.closed", "embedded", "curves.hilbert", "curves.poincare",
          "curves.inversion"]

# layers whose call counts are reported, and the one function each counts
CALLS = {"graphs": None, "counting.point": None,
         "counting.fit": "quasipoly_value"}


class Tracer:
    """Spans of one pass, with the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = ["instance"]
        self.layer_of: list[str] = ["bench"]
        self.label: list[int] = []
        self.parent: list[int] = []
        self.instance: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.returned: list[bool] = []
        self._open: list[int] = []
        self._current = -1
        self.fit_seen: set = set()
        self.sw_seen: set = set()
        self.counts = {"fit.reused": 0, "fit.two_gen": 0, "sw.reused": 0,
                       "expand.terms": 0}

    # -- recording ----------------------------------------------------------

    def _wrap(self, label: int, fn, before=None, after=None):
        names, parent, inst, start, end = (self.label, self.parent, self.instance,
                                           self.start, self.end)
        returned, stack, clock = self.returned, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(label)
            parent.append(stack[-1] if stack else -1)
            inst.append(self._current)
            end.append(0.0)
            returned.append(False)
            start.append(0.0)
            if before is not None:
                before(args, kwargs)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            returned[i] = True
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instance_span(self, index: int, fn, arg):
        """Run one benchmark instance inside a root span."""
        self._current = index
        return self._wrap(0, fn)(arg)

    # -- counters at the layer boundaries -----------------------------------

    def _fit_before(self, bind):
        def before(args, kwargs):
            call = bind(*args, **kwargs).arguments
            spec = call["spec"]
            key = (spec, tuple(sorted(call["positions"])))
            self.counts["fit.reused"] += key in self.fit_seen
            self.fit_seen.add(key)
            self.counts["fit.two_gen"] += len(spec.dens) == 2
        return before

    def _sw_before(self, bind):
        def before(args, kwargs):
            call = bind(*args, **kwargs).arguments
            key = (call["graph"], tuple(call["h"]))
            self.counts["sw.reused"] += key in self.sw_seen
            self.sw_seen.add(key)
        return before

    def _expand_after(self, result):
        self.counts["expand.terms"] += len(result.terms)

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every target in each loaded ``resgraph`` module and in
        ``extra_modules``."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "resgraph" or name.startswith("resgraph.")]
        namespaces += list(extra_modules)
        for modname, qualname, layer in TARGETS:
            module = importlib.import_module(f"resgraph.{modname}")
            label = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(layer)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr].__func__
                setattr(owner, attr, classmethod(self._wrap(label, fn)))
                continue
            original = getattr(module, attr)
            before = after = None
            if attr == "quasipoly_value":
                before = self._fit_before(inspect.signature(original).bind)
            elif attr == "sw_norm":
                before = self._sw_before(inspect.signature(original).bind)
            elif attr == "expand":
                after = self._expand_after
            wrapped = self._wrap(label, original, before, after)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time and counters of one pass, keyed by per-layer metric."""
        n = len(self.label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in CALLS}
        fit_calls = fit_returned = sw_calls = 0
        for i in range(n):
            name = self.names[self.label[i]]
            layer = self.layer_of[self.label[i]]
            if layer in self_s:
                self_s[layer] += self.end[i] - self.start[i] - child[i]
            if layer in calls and CALLS[layer] in (None, name):
                calls[layer] += 1
            if name == "quasipoly_value":
                fit_calls += 1
                fit_returned += self.returned[i]
            elif name == "sw_norm":
                sw_calls += 1
        out = {f"{layer}.self_s": v for layer, v in self_s.items()}
        out.update({f"{layer}.calls": v for layer, v in calls.items()})
        out["series.expand.terms"] = self.counts["expand.terms"]
        out["counting.fit.yield"] = fit_returned / fit_calls if fit_calls else 0.0
        out["counting.fit.reuse_share"] = (self.counts["fit.reused"] / fit_calls
                                           if fit_calls else 0.0)
        out["counting.fit.two_gen_share"] = (self.counts["fit.two_gen"] / fit_calls
                                             if fit_calls else 0.0)
        out["counting.sw.reuse_share"] = (self.counts["sw.reused"] / sw_calls
                                          if sw_calls else 0.0)
        return out

    def write(self, path) -> None:
        """All spans of the pass: ``[name, parent, instance, start_us,
        duration_us, returned]``, with times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        spans = [[self.label[i], self.parent[i], self.instance[i],
                  round((self.start[i] - t0) * 1e6),
                  round((self.end[i] - self.start[i]) * 1e6),
                  int(self.returned[i])]
                 for i in range(len(self.label))]
        doc = {"names": self.names, "layers": self.layer_of,
               "fields": ["name", "parent", "instance", "start_us",
                          "duration_us", "returned"],
               "spans": spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
