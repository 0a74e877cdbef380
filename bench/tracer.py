"""In-memory spans and exact counts for the traced benchmark run.

A span records its name, start and end (perf_counter_ns), the span that
encloses it and the workload id.  Spans are kept in a list and written out
once, when the run ends.  The layer of a span is the part of its name before
the first dot (`explore.run_exploration` belongs to `explore`); the layer
`bench` is the benchmark's own code, so its self time is the time no layer
call accounts for.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

LAYERS = ("randvar", "explore", "theory", "doob", "mc", "oracle", "stats", "cli")


class Tracer:
    """Collects spans and counts.  With enabled=False, span() costs one call
    that returns a shared null context, and nothing is recorded."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list = []  # [name, start_ns, end_ns, parent_index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._null = nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)

    def self_seconds(self) -> dict:
        """Self time per layer: each span's duration minus the time its
        direct children cover, summed by layer ('bench' included)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner) * 1e-9
        return out

    def write(self, path) -> None:
        doc = {
            "workload": self.workload,
            "fields": ["name", "start_ns", "end_ns", "parent", "workload"],
            "spans": [[n, s, e, p, self.workload] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
