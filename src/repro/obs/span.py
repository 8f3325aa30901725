"""Request-scoped spans: timing a query across the shard fan-out.

One sharded query touches many hops -- the router picks shards, each
shard waits for its read lock, the kernel scans, and results merge.
Aggregate histograms tell you the *distribution*; this module answers
"where did **this** request's time go".

A :class:`Trace` is propagated through a :mod:`contextvars` variable,
so any layer can attach spans without plumbing arguments.  The cost
contract mirrors the rest of the obs layer:

- With no active trace, :func:`current_trace` is one ``ContextVar.get``
  returning ``None``; span sites test that and skip.  Span sites live
  only in the sharded/parallel call layer, never inside per-node
  kernel loops.
- Timestamps use :func:`time.monotonic`, so every span of a trace
  lies on one timeline.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from time import monotonic
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Trace",
    "current_trace",
    "maybe_span",
    "start_trace",
]

_trace_ids = itertools.count(1)

_current: ContextVar[Optional["Trace"]] = ContextVar(
    "repro_trace", default=None
)


class Span:
    """One timed hop of a request."""

    __slots__ = ("name", "start", "end", "labels")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.labels = labels or {}

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_s": self.start,
            "end_s": self.end,
            "duration_us": round(self.duration_s * 1e6, 3),
            "labels": dict(self.labels),
        }

    def __repr__(self) -> str:
        extra = "".join(
            f" {k}={v!r}" for k, v in sorted(self.labels.items())
        )
        return (
            f"Span({self.name}{extra}, {self.duration_s * 1e6:.1f}us)"
        )


class Trace:
    """All spans of one request, on one monotonic timeline."""

    __slots__ = ("trace_id", "t0", "t1", "spans")

    def __init__(self, trace_id: Optional[int] = None) -> None:
        self.trace_id = (
            trace_id if trace_id is not None else next(_trace_ids)
        )
        self.t0 = monotonic()
        self.t1: Optional[float] = None
        self.spans: List[Span] = []

    # -- recording ---------------------------------------------------------

    def add(
        self, name: str, start: float, end: float, **labels: Any
    ) -> Span:
        """Attach one already-timed span (monotonic timestamps)."""
        span = Span(name, start, end, labels)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[Span]:
        """Time a ``with`` block as one span."""
        start = monotonic()
        span = Span(name, start, start, labels)
        try:
            yield span
        finally:
            span.end = monotonic()
            self.spans.append(span)

    def finish(self) -> None:
        """Close the trace's overall window."""
        if self.t1 is None:
            self.t1 = monotonic()

    # -- reading -----------------------------------------------------------

    @property
    def duration_s(self) -> float:
        end = self.t1 if self.t1 is not None else monotonic()
        return max(0.0, end - self.t0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "duration_us": round(self.duration_s * 1e6, 3),
            "spans": [
                s.to_dict()
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
        }

    def render(self, width: int = 40) -> str:
        """Text waterfall: one bar per span on the trace timeline."""
        total = self.duration_s or 1e-9
        lines = [
            f"span waterfall: trace {self.trace_id}, "
            f"{len(self.spans)} spans, {total * 1e3:.3f} ms total"
        ]
        for span in sorted(
            self.spans, key=lambda s: (s.start, s.end, s.name)
        ):
            offset = min(max(span.start - self.t0, 0.0), total)
            left = int(width * offset / total)
            bar = max(1, round(width * span.duration_s / total))
            bar = min(bar, width - left) or 1
            lane = " " * left + "=" * bar
            extra = " ".join(
                f"{k}={v}" for k, v in sorted(span.labels.items())
            )
            label = f"{span.name} {extra}".strip()
            lines.append(
                f"  {label:<24s} |{lane:<{width}s}| "
                f"{span.duration_s * 1e6:9.1f}us "
                f"@+{offset * 1e6:.1f}us"
            )
        return "\n".join(lines) + "\n"


# -- context propagation ---------------------------------------------------


def current_trace() -> Optional[Trace]:
    """The trace active in this context, or ``None``."""
    return _current.get()


@contextmanager
def start_trace(
    trace_id: Optional[int] = None,
) -> Iterator[Trace]:
    """Open a trace for the ``with`` block and make it the context's
    current trace.  Nested calls stack; the outer trace is restored on
    exit."""
    trace = Trace(trace_id)
    token = _current.set(trace)
    try:
        yield trace
    finally:
        trace.finish()
        _current.reset(token)


@contextmanager
def maybe_span(
    trace: Optional[Trace], name: str, **labels: Any
) -> Iterator[Optional[Span]]:
    """``trace.span(...)`` when a trace is given, no-op otherwise."""
    if trace is None:
        yield None
        return
    with trace.span(name, **labels) as span:
        yield span
