"""Layer spans for agrip, recorded from outside the package.

`Tracer` replaces the public functions of each layer with timing wrappers,
in the defining module or class and in every agrip module that holds an
alias of them (`signs.coherence`, `matrix.leq_reciprocal_log`, ...), and
puts every original back on exit.  Spans stay in memory; `write_spans`
dumps them as JSON lines once the run is over.

A span is (id, parent id, job, layer, function, start, end, rss rise,
outermost).  Only a layer's outermost span counts towards its calls, busy
time and RSS rise, so a layer function calling another one of the same
layer is not counted twice.  Layers in COUNT_ONLY are hot scalar paths:
their calls are counted and no span is kept.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, "function" or "Class.method") targets
LAYERS = {
    "cli": [("agrip.cli", "main")],
    "matrix.report": [("agrip.matrix", "coherence_report")],
    "matrix.coherence": [("agrip.matrix", "coherence")],
    "matrix.average_coherence": [("agrip.matrix", "average_coherence")],
    "matrix.read": [("agrip.matrix", "read_sparse")],
    "matrix.write": [("agrip.matrix", "write_sparse")],
    "exact.compare": [("agrip.exact", f"SurdSum.{op}")
                      for op in ("__lt__", "__le__", "__gt__", "__ge__",
                                 "__eq__")] + [("agrip.exact", "exact_leq")],
    "exact.threshold": [("agrip.exact", "leq_reciprocal_log"),
                        ("agrip.exact", "floor_reciprocal")],
    # entry points that build a matrix or a design; helpers such as
    # evaluate_coefficient_block count under the layer that calls them
    "constructions": [("agrip.constructions", name) for name in (
        "devore", "construction_a_simple_poles", "construction_a_single_point",
        "plane_curve_matrix", "plane_curve_census", "fermat_hyperplane_matrix",
        "evaluation_matrix", "build_design", "projective_space_design",
        "ruled_surface_design", "toric_design")],
    "fields.np_ops": [("agrip.fields", f"FieldSpec.{name}") for name in (
        "np_add", "np_neg", "np_sub", "np_mul", "np_pow", "np_digits")],
    "fields.scalar_ops": [("agrip.fields", f"FieldSpec.{name}") for name in (
        "add", "neg", "sub", "mul", "inv", "pow", "trace")],
    "signs": [("agrip.signs", "randomize_signs"),
              ("agrip.signs", "balanced_matrix")],
    "recovery": [("agrip.recovery", "run_experiment")],
    "recovery.trial": [("agrip.recovery", "omp"),
                       ("agrip.recovery", "one_step_thresholding")],
}
COUNT_ONLY = {"fields.scalar_ops", "recovery.trial"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _columns(args, kwargs, result):
    return getattr(result, "N", 0) if hasattr(result, "nnz") else 0


def _pairs(args, kwargs, result):
    N = args[0].N
    return N * (N - 1) // 2


def _bytes_read(args, kwargs, result):
    return os.path.getsize(args[0])


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


# layer -> units of work done by one outermost call
WORK = {
    "matrix.coherence": _pairs,
    "matrix.average_coherence": _pairs,
    "constructions": _columns,
    "signs": _columns,
    "matrix.read": _bytes_read,
    "matrix.write": _bytes_written,
}


def _resolve(module_name: str, target: str):
    """(owner, attribute name, original) for a "function" or "Class.method"."""
    owner = importlib.import_module(module_name)
    *path, attr = target.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Context manager that records agrip's layer spans while it is active."""

    def __init__(self):
        self.spans = []   # (id, parent, job, layer, fn, t0, t1, rss, outer)
        self.work = defaultdict(int)
        self.counts = defaultdict(int)
        self.job = None
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        wrappers = {}            # id(original) -> (original, wrapper)
        for layer, targets in LAYERS.items():
            for module_name, target in targets:
                try:
                    owner, attr, original = _resolve(module_name, target)
                except (AttributeError, KeyError):
                    self.missing.append(f"{module_name}.{target}")
                    continue
                wrapper = (self._counter(layer, original) if layer in COUNT_ONLY
                           else self._timed(layer, original))
                wrappers[id(original)] = (original, wrapper)
                self._patch(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "agrip" and not name.startswith("agrip."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []                 # ids of the open spans
            st.depth = defaultdict(int)   # open spans per layer
        return st

    def _counter(self, layer, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, layer, fn):
        tracer = self
        work = WORK.get(layer)
        fn_name = getattr(fn, "__qualname__", repr(fn))

        def wrapper(*args, **kwargs):
            st = tracer._state()
            outer = st.depth[layer] == 0
            parent = st.stack[-1] if st.stack else 0
            span_id = next(tracer._ids)
            st.stack.append(span_id)
            st.depth[layer] += 1
            rss0 = _maxrss_mb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if outer and work is not None:
                    tracer.work[layer] += work(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                st.depth[layer] -= 1
                st.stack.pop()
                tracer.spans.append((span_id, parent, tracer.job, layer,
                                     fn_name, t0, t1, _maxrss_mb() - rss0,
                                     outer))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """layer -> {"calls", "busy_s", "rss_rise_mb"} over outermost spans."""
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                      "rss_rise_mb": 0.0})
        for span in self.spans:
            if span[8]:
                t = totals[span[3]]
                t["calls"] += 1
                t["busy_s"] += span[6] - span[5]
                t["rss_rise_mb"] += span[7]
        return totals

    def cli_self_s(self) -> float:
        """Time inside cli spans not covered by their direct child spans."""
        cli = {s[0]: s[6] - s[5] for s in self.spans if s[3] == "cli"}
        covered = sum(s[6] - s[5] for s in self.spans
                      if s[1] in cli and s[3] != "cli")
        return sum(cli.values()) - covered

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "job", "layer", "fn", "start_s", "end_s",
                "rss_rise_mb", "outermost")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
