"""In-memory spans recorded by the benchmark around calls into cograd.

A span is (id, name, parent, run, thread, start, end). The layer of a span
is the part of its name before the first dot ("gnn.train" -> "gnn"). Spans
stay in memory and are written once, when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "qubo", "gnn", "linkpred", "pipeline", "baselines", "bench")


class NullTracer:
    """Stands in for a Tracer when the run is not traced: calls go straight
    through, so the untraced and traced code paths are the same code."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Records spans and counts; safe to use from pool threads."""

    def __init__(self, run: str = "setup"):
        self.run = run
        self.spans: list[dict] = []
        self.counts: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Open a span; its parent is the innermost open span of this thread
        unless given (a pool thread names the span that submitted it)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = {
            "name": name,
            "parent": parent,
            "run": self.run,
            "thread": threading.get_ident(),
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter() - self._origin
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name].append((self.run, float(value)))

    def of_run(self, run: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover (children in pool threads may overlap)."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_self_ms(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer, in milliseconds; 0 for a layer not called."""
    own = self_seconds(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own[s["id"]] * 1000.0
    return totals


def mean_call_ms(spans: list[dict], name: str) -> float:
    """Mean duration of the spans with this name, in ms; 0 when none ran."""
    d = [(s["end"] - s["start"]) * 1000.0 for s in spans if s["name"] == name]
    return sum(d) / len(d) if d else 0.0
