"""Reference event-lane device: one shared event loop for every die.

The device lane once pushed every NAND completion and suspend through a
generic heap-based :class:`EventLoop`, with each :class:`LoopDie`
registering handlers on it and a :class:`ReferenceLatencyModel`
advancing the whole loop to ``now_us`` at the start of every call.  The
library now lets each die advance itself (``repro.flash.devsim.nand``);
this module keeps the loop-driven design verbatim as the oracle the
property tests compare against, and the frontend oracle
(``test_devsim_frontend.py``) reuses its :class:`EventLoop`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError
from repro.flash.devsim.nand import OP_ERASE, OP_PROGRAM, OP_READ, NandOp
from repro.flash.latency import LatencyModel, NandTimings

Handler = Callable[["Event"], None]

#: Event kinds a die registers on its loop.
EVENT_COMPLETE = "nand-complete"
EVENT_SUSPEND = "nand-suspend"


class Event:
    """One scheduled occurrence; a cancelled event is skipped when popped."""

    __slots__ = ("time", "seq", "kind", "payload", "cancelled")

    def __init__(self, time: float, seq: int, kind: str, payload: Any) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False


class EventLoop:
    """Heap of ``(time, seq, event)``: ties fire in schedule order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._handlers: dict[str, Handler] = {}
        self._seq = 0
        self.now = 0.0
        self.fired = 0
        self._trace: list[tuple[float, int, str]] | None = None

    def register_handler(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise ConfigError(f"handler for event kind {kind!r} already registered")
        self._handlers[kind] = handler

    def enable_trace(self) -> list[tuple[float, int, str]]:
        """Record every fired event as ``(time, seq, kind)`` (live list)."""
        if self._trace is None:
            self._trace = []
        return self._trace

    def schedule(self, time: float, kind: str, payload: Any = None) -> Event:
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
        event.cancelled = True

    def _fire(self, event: Event) -> None:
        self.now = event.time
        self.fired += 1
        if self._trace is not None:
            self._trace.append((event.time, event.seq, event.kind))
        self._handlers[event.kind](event)

    def run_until(self, time: float) -> int:
        """Fire every event with timestamp <= ``time``; advance the clock."""
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
        fired = 0
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._fire(event)
            fired += 1
        return fired


def register_die_handlers(loop: EventLoop) -> None:
    loop.register_handler(EVENT_COMPLETE, lambda event: event.payload._on_complete())
    loop.register_handler(EVENT_SUSPEND, lambda event: event.payload._on_suspend())


class LoopDie:
    """One NAND die whose completions and suspends are loop events."""

    def __init__(self, loop: EventLoop, index: int, timings: NandTimings) -> None:
        self.loop = loop
        self.index = index
        self.timings = timings
        self.fg: deque[NandOp] = deque()
        self.bg: deque[NandOp] = deque()
        self.writes: deque[NandOp] = deque()
        self.in_flight: NandOp | None = None
        self.in_flight_end = 0.0
        self.fg_tail = 0.0
        self.bg_tail = 0.0
        self.write_tail = 0.0
        self.completed_ops = 0
        self.preemptions = 0
        self._segment_start = 0.0
        self._complete_event: Event | None = None
        self._suspend_event: Event | None = None

    def busy_horizon(self) -> float:
        return max(self.fg_tail, self.bg_tail, self.write_tail)

    def submit(self, op: NandOp, now_us: float) -> None:
        if now_us < self.loop.now:
            raise ConfigError(
                f"op submitted at {now_us:g}us behind the loop clock "
                f"{self.loop.now:g}us"
            )
        op.issued_at = now_us
        if op.kind == OP_READ:
            self._project_read(op, now_us)
        else:
            self._project_write(op, now_us)
        if self.in_flight is None:
            self._start(op, now_us)
        elif op.kind == OP_READ:
            (self.bg if op.background else self.fg).append(op)
            self._plan_suspend(now_us)
        else:
            self.writes.append(op)

    def _project_read(self, op: NandOp, now_us: float) -> None:
        read_us = self.timings.read_us
        base = self.fg_tail if not op.background else max(self.fg_tail, self.bg_tail)
        infl = self.in_flight
        if base > now_us:
            start = base
        elif infl is None:
            start = now_us
        elif not infl.is_write:
            start = self.in_flight_end
        else:
            if self._suspend_event is not None:
                suspend_at = self._suspend_event.time
            else:
                suspend_at = now_us + self.timings.suspend_floor_us
            start = min(self.in_flight_end, suspend_at)
        end = start + read_us
        op.projected_start = start
        op.projected_end = end
        if op.background:
            self.bg_tail = end
        else:
            self.fg_tail = end
            if self.bg_tail > start:
                self.bg_tail += read_us
        if self.write_tail > start:
            self.write_tail += read_us

    def _project_write(self, op: NandOp, now_us: float) -> None:
        start = max(now_us, self.fg_tail, self.bg_tail, self.write_tail)
        op.projected_start = start
        op.projected_end = start + op.service_us
        self.write_tail = op.projected_end

    def _start(self, op: NandOp, now_us: float) -> None:
        self.in_flight = op
        self._segment_start = now_us
        self.in_flight_end = now_us + op.remaining_us
        self._complete_event = self.loop.schedule(
            self.in_flight_end, EVENT_COMPLETE, self
        )

    def _plan_suspend(self, now_us: float) -> None:
        infl = self.in_flight
        if infl is None or not infl.is_write or self._suspend_event is not None:
            return
        at = now_us + self.timings.suspend_floor_us
        if at < self.in_flight_end:
            self._suspend_event = self.loop.schedule(at, EVENT_SUSPEND, self)

    def _dispatch(self, now_us: float) -> None:
        if self.in_flight is not None:
            return
        for queue in (self.fg, self.bg, self.writes):
            if queue:
                self._start(queue.popleft(), now_us)
                return

    def _on_complete(self) -> None:
        self._complete_event = None
        op = self.in_flight
        assert op is not None
        now = self.loop.now
        op.consumed_us += now - self._segment_start
        op.completed_at = now
        self.completed_ops += 1
        self.in_flight = None
        self._dispatch(now)

    def _on_suspend(self) -> None:
        self._suspend_event = None
        infl = self.in_flight
        if infl is None or not infl.is_write:
            self._dispatch(self.loop.now)
            return
        now = self.loop.now
        infl.consumed_us += now - self._segment_start
        infl.remaining_us = self.in_flight_end - now
        infl.preemptions += 1
        self.preemptions += 1
        if self._complete_event is not None:
            self.loop.cancel(self._complete_event)
            self._complete_event = None
        self.writes.appendleft(infl)
        self.in_flight = None
        self._dispatch(now)


@dataclass
class ReferenceLatencyModel(LatencyModel):
    """The loop-driven event lane: every call first runs the loop to
    ``now_us``.  ``ops`` records every submitted :class:`NandOp`."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.loop = EventLoop()
        register_die_handlers(self.loop)
        self.dies = [LoopDie(self.loop, i, self.timings) for i in range(self.num_channels)]
        self.ops: list[NandOp] = []

    def _cache_hit(self, page: int) -> bool:
        if not self.read_cache_pages:
            return False
        cache = self._read_cache
        if page in cache:
            cache.move_to_end(page)
            return True
        cache[page] = None
        while len(cache) > self.read_cache_pages:
            cache.popitem(last=False)
        return False

    def _submit(self, kind: str, page: int, service_us: float, now_us: float,
                background: bool = False) -> NandOp:
        op = NandOp(kind, page, service_us, background=background)
        self.dies[page % self.num_channels].submit(op, now_us)
        self.ops.append(op)
        return op

    def read(self, page: int, now_us: float, *, background: bool = False) -> float:
        return self.read_many([page], now_us, background=background)

    def read_many(self, pages: list[int], now_us: float, *, background: bool = False) -> float:
        if not pages:
            return 0.0
        self.loop.run_until(now_us)
        t = self.timings
        worst = 0.0
        for page in pages:
            if self._cache_hit(page):
                lat = t.transfer_us
            else:
                op = self._submit(OP_READ, page, t.read_us, now_us, background)
                lat = op.projected_end - now_us + t.transfer_us
            worst = max(worst, lat)
        return worst

    def program(self, page: int, now_us: float) -> float:
        return self.program_many([page], now_us)

    def program_many(self, pages: list[int], now_us: float) -> float:
        if not pages:
            return 0.0
        self.loop.run_until(now_us)
        t = self.timings
        worst = 0.0
        for page in pages:
            op = self._submit(OP_PROGRAM, page, t.program_us, now_us)
            worst = max(worst, op.projected_end - now_us + t.transfer_us)
        return worst

    def erase(self, first_page: int, now_us: float) -> float:
        self.loop.run_until(now_us)
        op = self._submit(OP_ERASE, first_page, self.timings.erase_us, now_us)
        return op.projected_end - now_us

    @property
    def total_preemptions(self) -> int:
        return sum(die.preemptions for die in self.dies)

    @property
    def completed_ops(self) -> int:
        return sum(die.completed_ops for die in self.dies)

    def drain(self) -> int:
        return self.loop.run_until_idle()
