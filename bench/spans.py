"""In-memory spans for the traced run, and self-time arithmetic.

A span records a layer call: name, start, end, the span that caused it,
the run (one replayed invocation) it belongs to, and counts taken at the
same boundary.  Spans stay in memory and are written out when the
benchmark ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[Span] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext(None)

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self.run, parent, perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children(span: Span, spans) -> list[Span]:
    return [s for s in spans if s.parent == span.id and s.run == span.run]


def self_time(span: Span, spans) -> float:
    """Duration minus the part of the span's interval its children cover."""
    kids = children(span, spans)
    return span.duration - covered([(k.start, k.end) for k in kids], span.start, span.end)
