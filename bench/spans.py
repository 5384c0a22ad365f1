"""Spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces public functions at their module attributes
with timing wrappers.  ``kcut.harness`` and ``kcut.cli`` look those
names up at call time, so a wrapped call made from inside another
wrapped call becomes its child span.  Worker threads start with no open
span of their own; a span they open is made a child of the span open on
the main thread at that moment, which is the call that handed them the
work.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time


class Tracer:
    """Records spans; create it on the main thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        source = stack or self._main_stack
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": source[-1] if source else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(span["id"])
        return span

    def close(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack().remove(span["id"])
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        yield span
        self.close(span)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, module, attr: str, attrs=None):
        """Replace ``module.attr`` by a wrapper that records a span named
        ``<module tail>.<attr>``.  ``attrs(args, kwargs, result)`` adds
        counts to the span."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = original(*args, **kwargs)
            self.close(span, **(attrs(args, kwargs, result) if attrs else {}))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), fh)


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    children = [
        (max(s["start"], span["start"]), min(s["end"], span["end"]))
        for s in spans
        if s["parent"] == span["id"]
    ]
    return duration(span) - union_length(c for c in children if c[1] > c[0])


def overlap(spans: list[dict]) -> float:
    """Summed span durations over the length of their union: 1 for
    spans that never run at once, up to the worker count."""
    cover = union_length((s["start"], s["end"]) for s in spans)
    return sum(duration(s) for s in spans) / cover if cover > 0 else 0.0
