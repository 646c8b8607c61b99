"""Spans recorded around the benchmark's calls into vendingrd.

A span has a name ``<layer>.<function>`` (or ``bench.<what>`` for the
benchmark's own root spans), a start and an end on the monotonic clock, the
id of the span that encloses it, and the id of the op it belongs to, so the
spans of one op share an id.  ``calls`` is the number of calls a span covers:
a tight loop of cheap calls gets one span, not one per call, so the span's
own bookkeeping stays out of the figure it measures.  Spans are kept in a
list and written out once the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("probability", "model", "closed_form", "region", "sim", "cli")


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def op(self, name, **tags):
        return nullcontext()

    def call(self, name, fn, *args, calls=1, **tags):
        return fn(*args)


class Tracer:
    """Tracing on: every ``op`` and ``call`` leaves one span in ``spans``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ops = 0

    @contextmanager
    def _span(self, name, calls, tags, new_op):
        parent = self._stack[-1] if self._stack else None
        if new_op or parent is None:
            self._ops += 1
            op_id = self._ops
        else:
            op_id = parent["op"]
        span = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": op_id,
            "name": name,
            "tags": tags,
            "calls": calls,
            "failed": False,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def op(self, name, **tags):
        """Root span of one op; the calls made inside it share its op id."""
        return self._span(name, 1, tags, new_op=True)

    def call(self, name, fn, *args, calls=1, **tags):
        """Run ``fn(*args)`` inside a span named after the layer function."""
        with self._span(name, calls, tags, new_op=False):
            return fn(*args)


def span_cost_s(count: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a call that does nothing."""
    tracer, noop = Tracer(), (lambda: None)
    started = time.perf_counter()
    for _ in range(count):
        noop()
    direct = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(count):
        tracer.call("bench.noop", noop)
    return (time.perf_counter() - started - direct) / count


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Seconds of each span not covered by its child spans, keyed by span id.

    Children of one span run one after another, so the covered part is the
    sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def layer_summary(spans) -> dict:
    """Self seconds, calls made and calls failed for every layer."""
    own = self_times(spans)
    out = {layer: {"self_s": 0.0, "calls": 0, "failed": 0} for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer not in out:
            continue
        out[layer]["self_s"] += own[s["id"]]
        out[layer]["calls"] += s["calls"]
        out[layer]["failed"] += s["calls"] if s["failed"] else 0
    return out


def select(spans, name, **tags):
    """The spans with this name whose tags include all the given ones."""
    return [
        s for s in spans
        if s["name"] == name and all(s["tags"].get(k) == v for k, v in tags.items())
    ]


def per_call(spans) -> list[float]:
    """Seconds per call of each span."""
    return [duration(s) / s["calls"] for s in spans]
