"""Spans recorded by the benchmark around its calls into wavemodels layers.

A span has a name ("<layer>.<function>"), a start and end time, the span
that caused it, and the id of the benchmark operation it belongs to.  Spans
are kept in memory and written out once, when the run ends.

``instrument`` wraps, for the duration of a ``with`` block, every function
that one wavemodels module imported from another (for example
``scenarios.scalar_evolve``, which is ``dispersive.scalar_evolve``), so the
calls between layers are recorded without touching the package's source.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

# Modules of the package and the layer each belongs to.
LAYER_OF_MODULE = {
    "wavemodels.spectral": "spectral",
    "wavemodels.physics": "physics",
    "wavemodels.linear": "linear",
    "wavemodels.hyperbolic": "hyperbolic",
    "wavemodels.dispersive": "dispersive",
    "wavemodels.traveling": "traveling",
    "wavemodels.traveling_newton": "traveling",
    "wavemodels.stepping": "stepping",
    "wavemodels.scenarios": "scenarios",
    "wavemodels.cli": "cli",
    "wavemodels.errors": "errors",
}
LAYERS = ("spectral", "linear", "hyperbolic", "dispersive", "traveling", "stepping",
          "scenarios", "cli")


class NullTracer:
    """Tracer of the untraced run: spans cost one context-manager entry."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    @contextlib.contextmanager
    def operation(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._ops = 0

    @contextlib.contextmanager
    def operation(self, name):
        """Group the spans of one benchmark operation under one id."""
        self._ops += 1
        self._op = self._ops
        try:
            with self.span(f"op.{name}"):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self time per span id: its duration minus its direct children's."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_self_seconds(self, ops) -> dict:
        """Self time summed per layer, over the spans of the given op ids."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s["op"] not in ops:
                continue
            layer = s["name"].split(".", 1)[0]
            if layer in out:
                out[layer] += own[s["id"]]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Record a span at every call that crosses from one layer into another."""
    patched = []
    for mod_name in LAYER_OF_MODULE:
        module = importlib.import_module(mod_name)
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value):
                continue
            callee = LAYER_OF_MODULE.get(value.__module__)
            if callee is None or value.__module__ == mod_name:
                continue
            setattr(module, attr, _wrap(tracer, f"{callee}.{value.__name__}", value))
            patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
