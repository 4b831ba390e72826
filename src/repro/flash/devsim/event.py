"""Deterministic discrete-event loop.

The loop is a binary heap of ``(time, seq, event)`` triples: ``seq`` is
a monotone schedule counter, so two events at the same simulated time
fire in the order they were scheduled — no dict-order or hash-order
tie-breaks anywhere.  Handlers are registered per event kind; firing an
event advances :attr:`EventLoop.now` to its timestamp and calls its
kind's handler.  Cancellation is lazy (the heap entry stays, the event
is skipped when popped), the standard trick that keeps ``cancel`` O(1).

Everything here is pure simulated time: no wall clock, no RNG.  The
randomness a simulation needs (arrival gaps, class assignment) is
precomputed from seeded streams in :mod:`repro.workloads.arrivals` and
fed in as plain arrays, which is what makes identical seeds produce
identical event sequences.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import ConfigError

Handler = Callable[["Event"], None]


class Event:
    """One scheduled occurrence.

    ``payload`` is opaque to the loop; handlers downcast it.  A
    cancelled event stays in the heap but is skipped when popped.
    """

    __slots__ = ("time", "seq", "kind", "payload", "cancelled")

    def __init__(self, time: float, seq: int, kind: str, payload: Any) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event({self.time:g}us #{self.seq} {self.kind}{flag})"


class EventLoop:
    """Heap-based event scheduler with stable ``(time, seq)`` ordering."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._handlers: dict[str, Handler] = {}
        self._seq = 0
        #: Current simulated time in microseconds.
        self.now = 0.0
        #: Events fired so far (cancelled events don't count).
        self.fired = 0
        self._trace: list[tuple[float, int, str]] | None = None

    # ------------------------------------------------------------------
    def register_handler(self, kind: str, handler: Handler) -> None:
        """Register the handler for ``kind`` (exactly one per kind)."""
        if kind in self._handlers:
            raise ConfigError(f"handler for event kind {kind!r} already registered")
        self._handlers[kind] = handler

    def enable_trace(self) -> list[tuple[float, int, str]]:
        """Record every fired event as ``(time, seq, kind)``.

        Returns the (live) list; the determinism tests compare two runs'
        traces for equality.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    # ------------------------------------------------------------------
    def schedule(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule ``kind`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ConfigError(
                f"cannot schedule {kind!r} at {time:g}us: the clock is "
                f"already at {self.now:g}us"
            )
        if kind not in self._handlers:
            raise ConfigError(f"no handler registered for event kind {kind!r}")
        event = Event(time, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (lazy: skipped when popped)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of non-cancelled events still in the heap."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def _fire(self, event: Event) -> None:
        self.now = event.time
        self.fired += 1
        if self._trace is not None:
            self._trace.append((event.time, event.seq, event.kind))
        self._handlers[event.kind](event)

    def run_until(self, time: float) -> int:
        """Fire every event with timestamp <= ``time``; advance the clock.

        Handlers may schedule further events; those within the horizon
        fire in the same call.  Returns the number of events fired.  The
        clock ends at ``max(now, time)`` even when no event fired.
        """
        fired = 0
        while self._heap and self._heap[0][0] <= time:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._fire(event)
            fired += 1
        if time > self.now:
            self.now = time
        return fired

    def run_until_idle(self) -> int:
        """Fire every pending event (and those they schedule)."""
        fired = 0
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._fire(event)
            fired += 1
        return fired
