"""Timing of the benchmark's calls into the library, with optional spans.

A `Clock` only measures.  A `Tracer` also keeps every measured call in
memory as a span (name, start, end, parent, tag), where the tag is an
instance or query id; spans are written out when the benchmark ends.
Both are used through `begin`/`end`, so that the traced and the untraced
pass run the same code.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Clock:
    traced = False

    def begin(self, name, tag=None):
        return perf_counter_ns()

    def end(self, handle) -> int:
        """Nanoseconds since the matching `begin`."""
        return perf_counter_ns() - handle

    def depth(self) -> int:
        return 0

    def unwind(self, depth: int) -> None:
        """Close the spans an exception left open above `depth`."""


class Tracer(Clock):
    traced = True

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, tag]
        self._open = []

    def begin(self, name, tag=None):
        i = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else -1, tag])
        self._open.append(i)
        self.spans[i][1] = perf_counter_ns()
        return i

    def end(self, handle) -> int:
        rec = self.spans[handle]
        rec[2] = perf_counter_ns()
        self._open.pop()
        return rec[2] - rec[1]

    def depth(self) -> int:
        return len(self._open)

    def unwind(self, depth: int) -> None:
        while len(self._open) > depth:
            self.end(self._open[-1])

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            h = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(h)

        return traced

    def self_times(self) -> list:
        """Per span: its duration minus the time its children cover.
        Children of one span never overlap (one thread, strict nesting)."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def totals(self) -> dict:
        """name -> [calls, inclusive ns, self ns]."""
        out = defaultdict(lambda: [0, 0, 0])
        for rec, own in zip(self.spans, self.self_times()):
            t = out[rec[0]]
            t[0] += 1
            t[1] += rec[2] - rec[1]
            t[2] += own
        return dict(out)

    def durations(self, name) -> list:
        return [rec[2] - rec[1] for rec in self.spans if rec[0] == name]


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace module attributes by traced wrappers for the duration of a
    traced pass, so that calls the library makes internally get spans too.
    `targets` is a list of (module, attribute, span name)."""
    saved = []
    try:
        for module, attr, name in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
