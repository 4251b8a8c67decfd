"""In-memory spans around the package's public functions.

A ``Tracer`` replaces a function in the namespace of the module that calls
it (for example ``gnnase.model.loss_and_grads``, as ``train`` looks it up)
with a wrapper that records a span: name, start, end and the index of the
enclosing span. Spans stay in a list until the run ends; nothing is written
while the traced code runs.

Spans nest through one stack per tracer. That is exact for the benchmark's
single client: the only thread pool in the package (``simulate``) runs one
task per replicate while its caller waits, and the benchmark simulates one
replicate.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


# Layer function -> the (module, attribute) names its callers look it up by.
TRACED = {
    "cli.main": ["gnnase.cli.main"],
    "cli.read_recording_csv": ["gnnase.cli.read_recording_csv"],
    "simulate.generate_catalog": ["gnnase.cli.generate_catalog"],
    "simulate.save_catalog": ["gnnase.cli.save_catalog"],
    "simulate.load_catalog": ["gnnase.cli.load_catalog", "gnnase.simulate.load_catalog"],
    "preprocess.filter_recording": [
        "gnnase.evaluate.filter_recording",
        "gnnase.model.filter_recording",
    ],
    "features.extract_windows": ["gnnase.evaluate.extract_windows", "gnnase.model.extract_windows"],
    "graphs.build_graph": ["gnnase.evaluate.build_graph", "gnnase.model.build_graph"],
    "evaluate.featurize_splits": [
        "gnnase.cli.featurize_splits",
        "gnnase.evaluate.featurize_splits",
    ],
    "model.train": ["gnnase.cli.train"],
    "model.loss_and_grads": ["gnnase.model.loss_and_grads"],
    "model.reweight_edges": ["gnnase.model.reweight_edges"],
    "model.evaluate_anomaly_accuracy": ["gnnase.model.evaluate_anomaly_accuracy"],
    "model.forward": ["gnnase.model.forward", "gnnase.evaluate.forward"],
    "model.recording_to_graph": ["gnnase.model.recording_to_graph", "gnnase.cli.recording_to_graph"],
    "model.load_checkpoint": ["gnnase.cli.load_checkpoint"],
    "model.save_checkpoint": ["gnnase.cli.save_checkpoint"],
}

# Work counts taken from a traced function's result.
WORK_COUNTS = {
    "simulate.generate_catalog": [("simulate.recordings", len)],
    "features.extract_windows": [("features.windows", len)],
    "graphs.build_graph": [
        ("graphs.nodes", lambda g: g.n_nodes),
        ("graphs.edges", lambda g: len(g.edges)),
    ],
}


class Tracer:
    """Collects spans and work counts from wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counters = WORK_COUNTS.get(name, [])

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, self.clock(), 0.0, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = self.clock()
            for counter, measure in counters:
                self.counts[counter] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: dict[str, list[str]] = TRACED):
        """Patch every target for the duration of the block.

        A target the package no longer defines is skipped; its function
        then reports zero calls.
        """
        patched = []
        try:
            for name, paths in targets.items():
                for path in paths:
                    module_name, attr = path.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    setattr(module, attr, self.wrap(name, original))
                    patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, []), key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor, span.start)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span], counts: Counter, names=TRACED) -> dict[str, float]:
    """Self time (``<name>_s``) and calls (``<name>_calls``) per function."""
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}_s"] += own
        out[f"{span.name}_calls"] += 1
    for counters in WORK_COUNTS.values():
        for counter, _ in counters:
            out[counter] = counts.get(counter, 0)
    return out


def root_time(spans: list[Span]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)
