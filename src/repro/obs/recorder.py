"""Always-on flight recorder: a lock-light ring of structured events.

The correctness harness (``repro.check``) can tell you *that* a drill
went red; this module remembers *what happened just before*.  A
:class:`FlightRecorder` keeps the last N structured events -- store
flushes and recoveries, plan-cache invalidations, HC<->LHC switches,
splits and merges, lock timeouts, injected faults -- in a fixed-size
:class:`collections.deque`, so a failing fuzz run or fault drill can
dump its tail as context.

Cost model, in order of how often each tier fires:

1. **Hot-path events** (op begin/end, split/merge, representation
   switches) are recorded only from code that already sits behind a
   ``runtime.enabled`` check, so the disabled path pays nothing.
2. **Rare structural events** (store flush, compaction and recovery,
   plan-cache invalidation, lock timeout, fault injection) are
   recorded unconditionally -- they happen a handful of times per
   process, and they are exactly the events a post-mortem needs.

"Lock-light" is literal: ``deque.append`` with a ``maxlen`` is atomic
under the GIL, and the monotonically increasing sequence number is the
only shared word besides the deque itself.  Readers (:meth:`dump`)
take a snapshot copy; they never block writers.
"""

from __future__ import annotations

from collections import deque
from time import monotonic
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "RECORDER",
    "clear",
    "dump",
    "get_recorder",
    "record",
    "render",
    "render_events",
]

#: Default ring size -- enough for "what led up to this" without turning
#: a dump into a log file.
DEFAULT_CAPACITY = 256

#: ``(seq, t_monotonic, kind, detail)``
Event = Tuple[int, float, str, Dict[str, Any]]


class FlightRecorder:
    """Fixed-size ring buffer of ``(seq, ts, kind, detail)`` events."""

    __slots__ = ("_ring", "_seq", "capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, **detail: Any) -> None:
        """Append one event; the oldest event falls off when full."""
        self._seq += 1
        self._ring.append((self._seq, monotonic(), kind, detail))

    def dump(self, last: Optional[int] = None) -> List[Event]:
        """Snapshot of the newest ``last`` events (all, by default),
        oldest first.  Safe to call while writers are appending."""
        events = list(self._ring)
        if last is not None and last >= 0:
            events = events[len(events) - min(last, len(events)):]
        return events

    def render(self, last: Optional[int] = None) -> str:
        """Human-readable tail, one event per line, oldest first.

        Timestamps print relative to the newest event (``-0.000s`` is
        the most recent), which survives process restarts better than
        absolute monotonic readings.
        """
        events = self.dump(last)
        if not events:
            return "flight recorder: (empty)\n"
        newest = events[-1][1]
        total = self._seq
        lines = [
            f"flight recorder: last {len(events)} of {total} events"
        ]
        for seq, ts, kind, detail in events:
            extra = " ".join(
                f"{key}={detail[key]!r}" for key in sorted(detail)
            )
            lines.append(
                f"  #{seq:<6d} {ts - newest:+9.3f}s  {kind:<24s} {extra}"
            )
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        """Drop all events and restart the sequence counter."""
        self._ring.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def seq(self) -> int:
        """Total events recorded since the last :meth:`clear`."""
        return self._seq


#: The process-global recorder every event site reports into.
RECORDER = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-global :class:`FlightRecorder`."""
    return RECORDER


def record(kind: str, **detail: Any) -> None:
    """Record one event into the process-global recorder."""
    RECORDER.record(kind, **detail)


def dump(last: Optional[int] = None) -> List[Event]:
    """Snapshot of the process-global recorder (oldest first)."""
    return RECORDER.dump(last)


def render(last: Optional[int] = None) -> str:
    """Human-readable tail of the process-global recorder."""
    return RECORDER.render(last)


def clear() -> None:
    """Empty the process-global recorder."""
    RECORDER.clear()


def render_events(events: List[Event]) -> str:
    """Render a previously captured :meth:`FlightRecorder.dump` list --
    e.g. a tail carried on a failure object after the live ring has
    moved on."""
    if not events:
        return "flight recorder: (empty)\n"
    newest = events[-1][1]
    lines = [f"flight recorder: {len(events)} captured event(s)"]
    for seq, ts, kind, detail in events:
        extra = " ".join(
            f"{key}={detail[key]!r}" for key in sorted(detail)
        )
        lines.append(
            f"  #{seq:<6d} {ts - newest:+9.3f}s  {kind:<24s} {extra}"
        )
    return "\n".join(lines) + "\n"
