"""In-memory span tracer for the benchmark.

Spans are recorded from the benchmark's side only: the callables the
benchmark drives are replaced, on the objects or modules that own them, by
wrappers that time each call.  Nothing in the program changes.  A span keeps
its name, the index of the span that was open when it started (its parent),
its start and end, and an optional note taken from the call's arguments and
result.  A span's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import contextlib
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "note")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as a span called ``name``; ``note(args, result)``, if
        given, is stored on the span after the call returns."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Trace ``owner.attr`` from now on, for the life of ``owner``."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


@contextlib.contextmanager
def replaced(module, attr: str, value):
    """Swap a module attribute for the duration of a ``with`` block."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)
