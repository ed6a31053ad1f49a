"""Span tracing around the calls into qsimcost's layers.

The tracer wraps every public function of each layer module at every
module binding the request path resolves it through (``costs.evaluate_cost``
and ``scenarios.evaluate_cost`` are the same function reached through two
bindings), and restores the originals afterwards. Nothing inside the
program changes: spans are recorded from the benchmark's side of each call.

A wrapped call outside a request passes straight through. Inside one it
increments the function's call count and records a span with the request id
and its parent span. Worker threads started by the request (run_scenario's
pool) have no open span of their own; their spans take as parent the span
open on the request thread. Calls to the functions in ``COUNT_ONLY`` from
their own layer, the optimizer's inner loop, are counted without a span to
keep the overhead down; their time stays in the calling span's self time.

A span's self time is its duration minus the union of its children's
intervals, since children on worker threads overlap each other.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = (
    "hamiltonian", "trotter", "costs", "par", "surface_code", "scenarios",
    "cli", "oracle",
)
COUNT_ONLY = frozenset({"costs.evaluate_cost", "costs.evaluate_cost_smooth"})
ROOT = "bench.request"


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    request: str
    name: str
    layer: str
    start: float
    end: float = 0.0
    failed: bool = False
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _note_result(name, result):
    """Per-call facts the per-layer metrics need, read from the result."""
    if name == "hamiltonian.enumerate_terms":
        return {"terms": len(result)}
    if name == "trotter.estimate_error_constant":
        return {"method": result.method, "population": result.population,
                "samples": result.samples,
                "rse": result.relative_std_error()}
    if name == "oracle.build_matrix":
        return {"dim": result.dim}
    if name == "oracle.strang_error_scan":
        return {"steps": len(result)}
    return None


class _ThreadState(threading.local):
    """Per-thread open-span stack and call counts, counted without a lock."""

    def __init__(self, registry):
        self.stack = []
        self.counts = collections.Counter()
        registry.append(self.counts)


class Tracer:
    """Installs wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.spans = []
        self.request_id = None
        self._ids = itertools.count()
        self._thread_counts = []
        self._local = _ThreadState(self._thread_counts)
        self._request_stack = None
        self._restore = []

    @property
    def counts(self):
        """Calls per wrapped function, summed over threads."""
        return sum(self._thread_counts, collections.Counter())

    # ----------------------------------------------------------- wrapping

    def targets(self):
        """id(fn) -> (layer, dotted name, fn) per public layer function."""
        out = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qsimcost.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    out[id(obj)] = (layer, f"{layer}.{name}", obj)
        return out

    def install(self):
        targets = self.targets()
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "qsimcost" and not module_name.startswith(
                    "qsimcost."):
                continue
            for attr, obj in list(vars(module).items()):
                target = targets.get(id(obj))
                if target is None or target[2] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(*target)
                setattr(module, attr, wrappers[id(obj)])
                self._restore.append((module, attr, obj))
        return self

    def restore(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, layer, name, fn):
        tracer = self
        local = self._local
        count_only = name in COUNT_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request_id is None:
                return fn(*args, **kwargs)
            stack = local.stack
            # a worker thread of the request has no span of its own open
            parent = stack[-1] if stack else tracer._request_stack[-1]
            local.counts[name] += 1
            if count_only and parent.layer == layer:
                return fn(*args, **kwargs)
            span = Span(next(tracer._ids), parent.id, tracer.request_id,
                        name, layer, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            info = _note_result(name, result)
            if info:
                span.info.update(info)
            return result

        return wrapper

    # ----------------------------------------------------------- requests

    def run_request(self, request_id, fn):
        """Call fn() as one request under a root span; returns its result."""
        stack = self._local.stack
        root = Span(next(self._ids), None, request_id, ROOT, "bench",
                    time.perf_counter())
        stack.append(root)
        self._request_stack = stack
        self.request_id = request_id
        try:
            return fn()
        finally:
            root.end = time.perf_counter()
            self.request_id = None
            stack.pop()
            self.spans.append(root)


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(children[span.id], span.start, span.end)
        for span in spans
    }
