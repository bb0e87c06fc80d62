"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent span and op id.  Span names are
``<layer>.<call>``, where the layer is the package module the call goes
into; the op a span belongs to is the root ``op`` span that encloses it.
Spans are kept in memory and written out once, when the run ends.

The untraced run uses ``NullTracer``, which calls straight through, so
end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

#: The package modules the benchmark calls into.  ``spectra`` and
#: ``presets`` are leaves reached only through these.
LAYERS = ("config", "cascade", "analytic", "quadrature", "interferogram", "figures")


class NullTracer:
    """Tracing off: every call goes straight to the package."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, op_id, fn, *args):
        return fn(*args)


class Tracer:
    """Records spans and counters for one traced run."""

    on = True

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op_id, raised)
        self._stack = []
        self._op_id = None
        self.sums = defaultdict(float)
        self.samples = defaultdict(list)
        self.maxima = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        raised = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op_id, raised)

    def op(self, op_id, fn, *args):
        """Run one op under a root span; its layer calls become children."""
        previous, self._op_id = self._op_id, op_id
        try:
            return self.call("op", fn, *args)
        finally:
            self._op_id = previous

    def add(self, name, value):
        self.sums[name] += value

    def sample(self, name, value):
        self.samples[name].append(value)

    def high(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def self_times(self):
        """(name, self seconds, raised) per span.

        Self time is the span's duration minus the part its child spans
        cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (name, end - start - child[i], raised)
            for i, (name, start, end, _, _, raised) in enumerate(self.spans)
        ]

    def metrics(self) -> dict:
        """Per-layer figures, keyed as in the benchmark's ``per_layer`` list.

        ``<span>_ms`` is the total self time of a span name in ms and
        ``<span>_p50_ms`` its median per call; ``<layer>.self_ms`` and
        ``<layer>.errors`` sum over every span in the layer.
        """
        out = {}
        by_name = defaultdict(list)
        selfs = self.self_times()
        for name, seconds, _ in selfs:
            by_name[name].append(seconds)
        for name, values in by_name.items():
            out[f"{name}_ms"] = 1e3 * sum(values)
            out[f"{name}_p50_ms"] = 1e3 * statistics.median(values)
        for layer in LAYERS:
            mine = [(s, r) for n, s, r in selfs if n.split(".")[0] == layer]
            out[f"{layer}.self_ms"] = 1e3 * sum(s for s, _ in mine)
            out[f"{layer}.errors"] = sum(1 for _, r in mine if r)
        out.update(self.sums)
        out.update(self.maxima)
        for name, values in self.samples.items():
            out[f"{name}_p50"] = statistics.median(values)
            out[f"{name}_max"] = max(values)
        if self.sums.get("analytic.prune_all"):
            out["analytic.prune_kept_ratio"] = (
                self.sums["analytic.prune_kept"] / self.sums["analytic.prune_all"]
            )
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op_id, raised in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id, "raised": raised,
                }) + "\n")
