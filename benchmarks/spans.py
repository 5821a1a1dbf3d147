"""In-memory span tracing by wrapping module attributes from outside.

The program is not instrumented. Instead each public function is replaced,
for the duration of a traced block, at the module attribute its caller
looks up (``experiments.exact_features`` and ``measure.exact_features`` are
two such sites for one function). A span records (name, start, end,
parent); an event records (name, enclosing span) and is used where only a
count is wanted, so the callee's time stays inside its caller's self time.

Spans live in flat ``array`` buffers so a traced run of tens of thousands
of rows stays small and cheap, and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.event_name = array("i")
        self.event_parent = array("q")
        self.current = -1
        self._sites = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_site(self, owner, attr: str, name: str) -> None:
        """Record a span around every call through ``owner.attr``."""
        self._sites.append((owner, attr, self._wrap_span(getattr(owner, attr), self._id(name))))

    def event_site(self, owner, attr: str, name: str) -> None:
        """Count every call through ``owner.attr`` against its enclosing span."""
        self._sites.append((owner, attr, self._wrap_event(getattr(owner, attr), self._id(name))))

    def _wrap_span(self, fn, name_id: int):
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            self.current = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                self.current = parent

        return traced

    def _wrap_event(self, fn, name_id: int):
        names, parents = self.event_name, self.event_parent

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            names.append(name_id)
            parents.append(self.current)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap every registered site to its wrapper; restore on exit."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._sites]
        try:
            for owner, attr, wrapper in self._sites:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def run_span(self, name: str, fn):
        """Call ``fn()`` inside a root span of the benchmark's own."""
        return self._wrap_span(fn, self._id(name))()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "span_name": np.array(self.span_name, dtype=np.int32),
            "span_parent": np.array(self.span_parent, dtype=np.int64),
            "span_start": np.array(self.span_start, dtype=np.float64),
            "span_end": np.array(self.span_end, dtype=np.float64),
            "event_name": np.array(self.event_name, dtype=np.int32),
            "event_parent": np.array(self.event_parent, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


class Summary:
    """Per-name totals over a finished trace.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly on one thread, so that is the part of
    the interval the children do not cover.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        n_names = len(self.names)
        dur = a["span_end"] - a["span_start"]
        parent = a["span_parent"]
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self.self_s = np.bincount(a["span_name"], weights=dur - child, minlength=n_names)
        self.total_s = np.bincount(a["span_name"], weights=dur, minlength=n_names)
        self.calls = np.bincount(a["span_name"], minlength=n_names)
        self.events = np.bincount(a["event_name"], minlength=n_names)
        self._span_name = a["span_name"]
        self._event_name = a["event_name"]
        self._event_parent = a["event_parent"]

    def _index(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def self_time(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.self_s[i])

    def total_time(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total_s[i])

    def span_count(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def event_count(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.events[i])

    def events_under(self, event: str, parent_span: str) -> np.ndarray:
        """Indices of the ``parent_span`` spans enclosing each ``event``."""
        e, p = self._index(event), self._index(parent_span)
        if e is None or p is None:
            return np.zeros(0, dtype=np.int64)
        parents = self._event_parent[self._event_name == e]
        parents = parents[parents >= 0]
        return parents[self._span_name[parents] == p]
