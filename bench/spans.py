"""Spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``perf_counter_ns``), the id of the span it
ran under, the op it belongs to, integer counts read from the call's result,
whether the call raised, and whether it is off the op's path: a probe that
re-runs a function the op only reaches inside another public call, so that
the function gets a number of its own.  Spans stay in memory until ``dump``
writes them as JSON lines.  ``Untraced`` runs the same op path with no spans
and skips the probes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable


class Untraced:
    @staticmethod
    def call(name: str, fn: Callable, *args):
        return fn(*args)

    @staticmethod
    def probe(name: str, fn: Callable, *args):
        return None


class Tracer:
    def __init__(self, counters: dict[str, Callable[[object], dict[str, int]]]):
        self.counters = counters
        self.spans: list[dict] = []
        self._parent: int | None = None
        self._op: str | None = None

    def _open(self, name: str, off_path: bool = False) -> dict:
        span = {"id": len(self.spans), "name": name, "start": perf_counter_ns(), "end": None,
                "parent": self._parent, "op": self._op, "counts": {}, "error": None,
                "off_path": off_path}
        self.spans.append(span)
        return span

    @contextmanager
    def op(self, name: str, op_id: str):
        """Root span of one op; calls made inside it become its children."""
        self._op = op_id
        span = self._open(name)
        self._parent = span["id"]
        try:
            yield span
        finally:
            span["end"] = perf_counter_ns()
            self._parent = None
            self._op = None

    def probe(self, name: str, fn: Callable, *args):
        return self._call(name, fn, args, off_path=True)

    def call(self, name: str, fn: Callable, *args):
        return self._call(name, fn, args, off_path=False)

    def _call(self, name: str, fn: Callable, args: tuple, off_path: bool):
        span = self._open(name, off_path)
        try:
            result = fn(*args)
        except Exception as exc:
            span["end"] = perf_counter_ns()
            span["error"] = type(exc).__name__
            raise
        span["end"] = perf_counter_ns()
        counter = self.counters.get(name)
        if counter is not None:
            span["counts"] = counter(result)
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its children (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, calls that raised, and mean self time per call (s)."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "errors": 0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += s["error"] is not None
        row["self_s"] += own[s["id"]] / 1e9
    for row in table.values():
        row["self_s"] /= row["calls"]
    return table


def count_means(spans: list[dict]) -> dict[str, float]:
    """Per count name: its mean over the spans that carry it."""
    sums: dict[str, list[int]] = {}
    for s in spans:
        for key, value in s["counts"].items():
            acc = sums.setdefault(key, [0, 0])
            acc[0] += value
            acc[1] += 1
    return {key: total / n for key, (total, n) in sums.items()}
