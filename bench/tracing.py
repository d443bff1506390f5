"""Per-layer tracing of the ambmdp package from outside.

``install`` wraps every public function defined in each layer module and
rebinds the wrapper in every namespace that holds the original, so that
``from .bayes import solve_bayes`` in ``ambmdp.ambiguity`` and the package
re-exports are traced as well as the defining module.  Nothing in the
package is edited; ``uninstall`` restores the originals.

Two kinds of wrapper:

* span functions record one span per call, with the request id and the
  parent span, kept in memory; self time is computed from the spans
  afterwards (duration minus child spans minus aggregated children);
* aggregated functions (per-node belief updates, per-grid-point risk
  evaluations, lattice generator steps) only add to a counter of calls,
  total time and self time, because one span per call would cost more than
  the call.  An aggregated function never calls a span function.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from time import perf_counter

#: the layers, in the order a solve passes through them
LAYERS = ("cli", "ambiguity", "search", "bayes", "belief", "risk", "oracle", "model")
#: layers whose functions are counted instead of spanned
AGGREGATED_LAYERS = ("belief", "risk")
#: search functions whose first argument is the objective; its calls are counted
OBJECTIVE_TAKERS = ("golden_section_max", "plateau_edges", "refine_coordinate_pairs")


class Tracer:
    """In-memory spans and counters for one traced run.

    A span is ``(span_id, parent_id, request, name, start, end,
    aggregated_child_s, attrs)``; ``parent_id`` is -1 for a request's root.
    """

    def __init__(self):
        self.active = False
        self.request = -1
        self.spans: list[tuple | None] = []
        # name -> [calls, total_s, self_s]
        self.counters: dict[str, list] = {}
        # open frames: [span_id (None when aggregated), child_total_s, aggregated_child_s]
        self.stack: list[list] = []

    def enter_span(self) -> list:
        if self.stack and self.stack[-1][0] is None:
            raise RuntimeError("span function called inside an aggregated function")
        frame = [len(self.spans), 0.0, 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        return frame

    def exit_span(self, frame: list, name: str, start: float, end: float, attrs: dict):
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans[frame[0]] = (
            frame[0], parent, self.request, name, start, end, frame[2], attrs,
        )
        if self.stack:
            self.stack[-1][1] += end - start

    def enter_counted(self) -> list:
        frame = [None, 0.0, 0.0]
        self.stack.append(frame)
        return frame

    def exit_counted(self, frame: list, name: str, duration: float, calls: int = 1):
        self.stack.pop()
        entry = self.counters.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += duration
        entry[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
            self.stack[-1][2] += duration

    def request_span(self, request: int, call):
        """Run ``call`` as the root span of request ``request``."""
        self.request = request
        frame = self.enter_span()
        start = perf_counter()
        try:
            return call()
        finally:
            self.exit_span(frame, "request", start, perf_counter(), {})
            self.request = -1

    def self_times(self) -> list[tuple[tuple, float]]:
        """Every recorded span with its self time."""
        spans = [s for s in self.spans if s is not None]
        child_s = [0.0] * len(self.spans)
        for span in spans:
            if span[1] >= 0:
                child_s[span[1]] += span[5] - span[4]
        return [(s, s[5] - s[4] - child_s[s[0]] - s[6]) for s in spans]


def _counting(f, tally: list):
    def counted(*args, **kwargs):
        tally[0] += 1
        return f(*args, **kwargs)
    return counted


def _span_wrapper(tracer: Tracer, name: str, fn):
    short = name.rsplit(".", 1)[1]
    counts_objective = short in OBJECTIVE_TAKERS

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tally = [0]
        if counts_objective:
            if args:
                args = (_counting(args[0], tally),) + args[1:]
            else:
                kwargs["f"] = _counting(kwargs["f"], tally)
        frame = tracer.enter_span()
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            attrs = _attrs(short, args, kwargs, result)
            if counts_objective:
                attrs["evals"] = tally[0]
            tracer.exit_span(frame, name, start, end, attrs)

    return traced


def _attrs(short: str, args, kwargs, result) -> dict:
    """Work counts read from a call's arguments and result."""
    if result is None:
        return {}
    if short == "build_tree":
        return {"nodes": len(result)}
    if short == "certify_saddle":
        return {"grid_points": result.grid_points}
    if short == "enumerate_cost":
        return {"trajectories": len(result[1])}
    if short == "mc_estimate":
        samples = kwargs["samples"] if "samples" in kwargs else args[3]
        return {"samples": samples}
    return {}


def _counted_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter_counted()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit_counted(frame, name, perf_counter() - start)

    return traced


def _generator_wrapper(tracer: Tracer, name: str, fn):
    """Each step of the generator is one aggregated call."""

    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        if not tracer.active:
            yield from iterator
            return
        while True:
            frame = tracer.enter_counted()
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                tracer.exit_counted(frame, name, perf_counter() - start)
                return
            tracer.exit_counted(frame, name, perf_counter() - start)
            yield item

    return traced


def public_functions(layer: str):
    """(name, function) for each public function defined in a layer module."""
    module = importlib.import_module(f"ambmdp.{layer}")
    for attr, value in sorted(vars(module).items()):
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer's public functions in every ambmdp namespace that
    binds them.  Returns the bindings replaced, for ``uninstall``."""
    namespaces = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "ambmdp" or name.startswith("ambmdp."))
    ]
    replaced = []
    for layer in LAYERS:
        for attr, fn in public_functions(layer):
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                wrapper = _generator_wrapper(tracer, name, fn)
            elif layer in AGGREGATED_LAYERS:
                wrapper = _counted_wrapper(tracer, name, fn)
            else:
                wrapper = _span_wrapper(tracer, name, fn)
            for namespace in namespaces:
                for bound, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, bound, wrapper)
                        replaced.append((namespace, bound, fn))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for namespace, bound, fn in replaced:
        setattr(namespace, bound, fn)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace with ``tracer`` inside the block; the originals are back after."""
    replaced = install(tracer)
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
        uninstall(replaced)
