"""In-memory span recorder that wraps the program's public functions.

Spans are recorded from outside the program: :meth:`Tracer.installed`
replaces a function where its caller looks it up (a module attribute, or a
method on its class), and the replacement opens a span around the original.
Nothing in ``src/`` is modified, and everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (name, start, end, parent, instance id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = 0
        self._stack: list[int] = []
        self._targets: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def open_names(self) -> list[str]:
        return [self.spans[i].name for i in self._stack]

    # -- wrapping ----------------------------------------------------------

    def add(self, owner, attr: str, name: str, count=None, on_enter=None) -> None:
        """Register ``owner.attr`` to be wrapped while installed.

        ``count(result, *args, **kwargs)`` returns a dict of counts stored
        on the span; it runs after the span closes, so it is not timed.
        ``on_enter(self)`` runs before the span opens.
        """
        self._targets.append((owner, attr, name, count, on_enter))

    def _wrap(self, fn, name, count, on_enter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(self)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx].counts.update(count(out, *args, **kwargs))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count, on_enter in self._targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count, on_enter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def ancestors(self, idx: int):
        p = self.spans[idx].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent

    def records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "instance": s.instance,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds to its caller, measured on a no-op."""
    probe = Tracer()
    fn = probe._wrap(lambda: None, "probe", None, None)
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n
