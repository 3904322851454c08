"""In-memory spans recorded by the benchmark around its calls into a layer.

The program under test is not instrumented: the benchmark opens a span
before it calls into a layer and closes it after, so a span's name is the
layer and its duration the time that call took.  Spans of one round share
the round id; a span opened while another is open is its child, and a
layer's *self time* is its duration minus the part its children cover.
Nothing is written until the run ends (:func:`chrome_trace`).

With ``enabled=False`` every call is a no-op, which is how the untraced
run keeps the tracer's cost out of the end-to-end figures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "traced_slot", "self_times", "self_time_table",
           "chrome_trace"]


def traced_slot(k: int) -> bool:
    """Is update ``k`` of a traced run one of the traced ones?

    Traced and untraced updates are interleaved T U U T, T U U T, ...:
    each side gets as many even as odd slots (alternate updates differ
    systematically — double buffers, alternating directions) and a linear
    drift across a block of four cancels.
    """
    return k % 4 in (0, 3)


class Span:
    __slots__ = ("name", "start", "end", "parent", "round_id", "index")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 round_id: int, index: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round_id = round_id
        self.index = index

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the calling thread (the bench is one thread)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.round_id = -1

    def begin(self, name: str, at: Optional[float] = None) -> Optional[int]:
        if not self.enabled:
            return None
        start = time.perf_counter() if at is None else at
        parent = self._stack[-1] if self._stack else None
        span = Span(name, start, parent, self.round_id, len(self.spans))
        self.spans.append(span)
        self._stack.append(span.index)
        return span.index

    def end(self, index: Optional[int], at: Optional[float] = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter() if at is None else at
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a completed interval observed elsewhere (a wrapper's
        timestamps) as a child of whatever span is open now."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, start, parent, self.round_id, len(self.spans))
        span.end = end
        self.spans.append(span)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span index: duration minus the union of its direct
    children's intervals (clipped to the span, overlaps counted once)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.index, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.index] = max(0.0, span.duration - covered)
    return out


def self_time_table(spans: List[Span]) -> List[Dict[str, Any]]:
    """Per-name totals, ranked by self time (the 'where the time goes'
    table): count, total and self seconds, share of all self time."""
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        row = rows.setdefault(span.name, {"name": span.name, "count": 0,
                                          "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.index]
    total_self = sum(r["self_s"] for r in rows.values()) or 1.0
    table = sorted(rows.values(), key=lambda r: -r["self_s"])
    for row in table:
        row["share"] = row["self_s"] / total_self
    return table


def chrome_trace(spans: List[Span], process: str) -> Dict[str, Any]:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start for s in spans)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": process}}]
    for span in spans:
        events.append({
            "name": span.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (span.start - t0) * 1e6, "dur": span.duration * 1e6,
            "args": {"round": span.round_id, "parent": span.parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
