"""Span tracer that wraps biquadrank's public functions from the outside.

Every public function (a module-level function whose name has no leading
underscore) of a layer module is replaced by a wrapper at *every* module
that bound the name: `factor` is wrapped in `arith`, `heights`, `descent`
and `parity`, so calls made inside the package are seen as well as calls
made by the benchmark.  The benchmark's own `workloads.certify` is wrapped
too, as the root span of one certificate.  The program itself is not
changed and records nothing.

A span is `(name, start, end, parent, key)`: `parent` is the index of the
enclosing span (or -1) and `key` identifies the argument for the functions
whose distinct calls are counted.  Spans stay in memory and are written out
once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc

import workloads

CERTIFY = "workloads.certify"

# Which argument makes a call distinct, for the `.distinct` counts.
DISTINCT_KEY = {
    "arith.factor": lambda args, kwargs: args[0] if args else kwargs["n"],
    "heights.canonical_height": lambda args, kwargs: (args[0].b, args[1].x, args[1].y),
}

RESOLVE = ("biquadrate.euler_quadruple", "biquadrate.validate_double_representation",
           "biquadrate.recover_euler_params", "biquadrate.representations")
SEARCH = "biquadrate.search_double_representations"

# Per-layer metric -> (unit, how it is derived from one pass's spans).
#   ("calls", span)    number of spans
#   ("distinct", span) number of distinct keys
#   ("s", spans...)    wall time covered by the outermost of these spans
#   ("self_s", span)   span time not covered by child spans
#   ("counter", name)  a counter bumped by a result hook
#   ("memory",)        set by the worker from a pass of its own, see Tracer
LAYER_METRICS = {
    "heights.canonical_height.calls": ("count", ("calls", "heights.canonical_height")),
    "heights.canonical_height.distinct": ("count", ("distinct", "heights.canonical_height")),
    "heights.canonical_height.s": ("s", ("s", "heights.canonical_height")),
    "heights.gram_matrix.calls": ("count", ("calls", "heights.gram_matrix")),
    "heights.gram_matrix.self_s": ("s", ("self_s", "heights.gram_matrix")),
    "heights.independence_rank.self_s": ("s", ("self_s", "heights.independence_rank")),
    "arith.factor.calls": ("count", ("calls", "arith.factor")),
    "arith.factor.distinct": ("count", ("distinct", "arith.factor")),
    "arith.factor.s": ("s", ("s", "arith.factor")),
    "descent.phi_image.self_s": ("s", ("self_s", "descent.phi_image")),
    "descent.psi_image.self_s": ("s", ("self_s", "descent.psi_image")),
    "descent.square_class.calls": ("count", ("calls", "descent.square_class")),
    "descent.yoshida_upper_bound.self_s": ("s", ("self_s", "descent.yoshida_upper_bound")),
    "parity.root_number.self_s": ("s", ("self_s", "parity.root_number")),
    "curve.torsion_shape.self_s": ("s", ("self_s", "curve.torsion_shape")),
    "curve.constructed_points.s": ("s", ("s", "curve.constructed_points")),
    "biquadrate.search.s": ("s", ("s", SEARCH)),
    "biquadrate.search.hits": ("count", ("counter", "search.hits")),
    "biquadrate.search.peak_mb": ("MB", ("memory",)),
    "biquadrate.resolve.s": ("s", ("s", *RESOLVE)),
}
COUNT_METRICS = tuple(m for m, (unit, _) in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """Collects spans while `enabled`; wrappers pass straight through otherwise.

    `tracemalloc` slows the search several times over, so allocation peaks
    are taken only while `track_memory` is set, in a pass of their own that
    records no spans.
    """

    def __init__(self):
        self.enabled = False
        self.track_memory = False
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def bump(self, counter: str, by: int = 1):
        self.counters[counter] = self.counters.get(counter, 0) + by

    def wrap(self, name: str, fn, on_result=None):
        key_of = DISTINCT_KEY.get(name)
        measures_memory = name == SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.track_memory and measures_memory:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters["search.peak_bytes"] = max(
                        self.counters.get("search.peak_bytes", 0), peak)
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            key = key_of(args, kwargs) if key_of else None
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, key)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, layers):
        """Wrap every public function of the layer modules at every binding site."""
        modules = vars(layers)
        names = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{layer}.{attr}"
        hooks = {SEARCH: lambda quads: self.bump("search.hits", len(quads))}
        wrappers = {fn: self.wrap(name, fn, hooks.get(name)) for fn, name in names.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        workloads.certify = self.wrap(CERTIFY, workloads.certify)

    def begin_pass(self) -> int:
        """Reset the counters; returns the index of the pass's first span."""
        self.counters = {}
        return len(self.spans)

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index `first`."""
        return derive(self.spans[first:], first, self.counters)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, key in self.spans:
                fh.write(json.dumps([name, start, end, parent,
                                     None if key is None else repr(key)]) + "\n")


def derive(spans, offset: int, counters: dict) -> dict[str, float]:
    """Layer metrics from spans whose indices start at `offset`."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= offset:
            child_time[parent - offset] += end - start

    def outermost(names):
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name not in names:
                continue
            while parent >= offset and spans[parent - offset][0] not in names:
                parent = spans[parent - offset][3]
            if parent < offset:
                total += end - start
        return total

    out = {}
    for metric, (_, (kind, *names)) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = sum(1 for s in spans if s[0] == names[0])
        elif kind == "distinct":
            out[metric] = len({s[4] for s in spans if s[0] == names[0]})
        elif kind == "s":
            out[metric] = outermost(set(names))
        elif kind == "self_s":
            out[metric] = sum((s[2] - s[1] - child_time[i]
                               for i, s in enumerate(spans) if s[0] == names[0]), 0.0)
        elif kind == "counter":
            out[metric] = counters.get(names[0], 0)
    return out


def per_certificate(spans, root: str, counted: tuple[str, ...]) -> list[dict[str, tuple[int, int]]]:
    """For each `root` span, (calls, distinct keys) of each counted span below it."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    rows = []
    for i, s in enumerate(spans):
        if s[0] != root:
            continue
        below, todo = [], list(children.get(i, ()))
        while todo:
            j = todo.pop()
            below.append(spans[j])
            todo.extend(children.get(j, ()))
        rows.append({name: (sum(1 for b in below if b[0] == name),
                            len({b[4] for b in below if b[0] == name}))
                     for name in counted})
    return rows
