"""Spans and counts recorded by the harness around its calls into tilesim.

A span has a name, a start and an end (perf_counter seconds), the id of the
span that encloses it and the id of the run (workload iteration) it belongs
to.  Spans stay in memory until the harness writes its result file.  With
memory=True every non-root span also records the tracemalloc peak reached
during the call, above the traced memory at its start; the caller starts and
stops tracemalloc.  Each such span resets the peak, so measured spans must
not nest: the workloads open layer spans directly under the pass's root.
"""

from contextlib import contextmanager, nullcontext
import time
import tracemalloc


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    def iteration(self, run_id):
        return nullcontext()

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = {}
        self._stack = []
        self._run = None

    @contextmanager
    def iteration(self, run_id):
        self._run = run_id
        self.counts[run_id] = {}
        with self.span("iteration"):
            yield

    @contextmanager
    def span(self, name):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "run": self._run}
        self.spans.append(rec)
        self._stack.append(rec)
        measure = self.memory and parent is not None
        if measure:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if measure:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self._stack.pop()

    def add(self, name, value):
        """Add value to a count of the current run."""
        run = self.counts[self._run]
        run[name] = run.get(name, 0) + value


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def span_table(spans):
    """Per span name: number of spans, total and self seconds."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table
