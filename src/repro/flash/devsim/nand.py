"""Per-die NAND queues with program/erase suspend-resume.

A :class:`Die` is one NAND service unit, one per channel: physical page
``p`` on a ``C``-channel device is served by die ``p % C`` —
interleaved striping, exactly the analytic lane's ``channel_of``.

Three queues per die, in dispatch priority order:

1. foreground reads (host GETs),
2. background reads (suspendable engine work, e.g. Nemo's writeback
   reads),
3. writes (programs and erases), FIFO; a suspended write re-enters at
   the *front* with its residual service time, so no work is lost.

Suspend model: when a read arrives behind an in-flight program/erase, a
suspend fires after at most
:attr:`~repro.flash.latency.NandTimings.suspend_floor_us` — the write
is split, the read runs, the residual resumes.  This is the same
read-prioritisation contract the analytic lane's ``_start_time``
implements with its ``min(busy, now + floor)`` clamp.

Commit-at-issue projections: the host-visible latency of every op is
computed *at submission* from the die's queue horizons (``fg_tail``,
``bg_tail``, ``write_tail``).  For foreground reads the projection is
exact — nothing can later be inserted ahead of a committed read — which
a property test pins by comparing projections against actual
completions.  Write/erase projections are issue-time estimates: later
reads may preempt them, extending the in-device completion (tracked by
the shifted ``write_tail`` and asserted in the timeline goldens) while
the host-visible latency stays the committed value, exactly like a real
device acknowledging a program before its suspended tail finishes.

Each die is its own clock.  Dies share no state, and a die has at most
two pending timestamps — the in-flight op's completion and a suspend,
which is only ever planned strictly before that completion — so
:meth:`Die.advance` fires them in time order with no shared event queue
(DESIGN.md §9).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.flash.latency import NandTimings

#: Op kinds (``program`` and ``erase`` share the write path).
OP_READ = "read"
OP_PROGRAM = "program"
OP_ERASE = "erase"


class NandOp:
    """One in-device operation with its commit-at-issue projection."""

    __slots__ = (
        "kind",
        "page",
        "background",
        "service_us",
        "remaining_us",
        "issued_at",
        "projected_start",
        "projected_end",
        "consumed_us",
        "preemptions",
        "completed_at",
    )

    def __init__(
        self, kind: str, page: int, service_us: float, *, background: bool = False
    ) -> None:
        self.kind = kind
        self.page = page
        self.background = background
        self.service_us = service_us
        self.remaining_us = service_us
        self.issued_at = 0.0
        self.projected_start = 0.0
        self.projected_end = 0.0
        #: Service time actually consumed across all execution segments;
        #: equals ``service_us`` at completion (suspend loses nothing).
        self.consumed_us = 0.0
        self.preemptions = 0
        self.completed_at: float | None = None

    @property
    def is_write(self) -> bool:
        return self.kind != OP_READ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NandOp({self.kind} page={self.page} "
            f"[{self.projected_start:g},{self.projected_end:g}]us)"
        )


class Die:
    """One NAND die: three priority queues, one in-flight op, own clock."""

    __slots__ = (
        "index",
        "timings",
        "fg",
        "bg",
        "writes",
        "in_flight",
        "in_flight_end",
        "fg_tail",
        "bg_tail",
        "write_tail",
        "completed_ops",
        "preemptions",
        "now",
        "_segment_start",
        "_complete_at",
        "_suspend_at",
    )

    def __init__(self, index: int, timings: NandTimings) -> None:
        self.index = index
        self.timings = timings
        self.fg: deque[NandOp] = deque()
        self.bg: deque[NandOp] = deque()
        self.writes: deque[NandOp] = deque()
        self.in_flight: NandOp | None = None
        self.in_flight_end = 0.0
        #: Projected completion horizons (absolute µs) per queue class.
        self.fg_tail = 0.0
        self.bg_tail = 0.0
        self.write_tail = 0.0
        self.completed_ops = 0
        self.preemptions = 0
        #: The die's clock (µs): the time of the last event it fired.
        self.now = 0.0
        self._segment_start = 0.0
        #: The in-flight op's completion, and a planned suspend of an
        #: in-flight write (always strictly before that completion).
        self._complete_at: float | None = None
        self._suspend_at: float | None = None

    # ------------------------------------------------------------------
    def busy_horizon(self) -> float:
        """Absolute time at which all currently-queued work completes."""
        return max(self.fg_tail, self.bg_tail, self.write_tail)

    def advance(self, t: float) -> int:
        """Fire the pending suspend and completions due by ``t``, in time
        order (``t=inf`` runs the die to idle).

        A completion dispatches the next queued op, whose own completion
        fires in the same call when it is due too.  Returns the number of
        suspends and completions fired.
        """
        fired = 0
        while True:
            at = self._suspend_at
            if at is not None and at <= t:
                self.now = at
                self._on_suspend()
            else:
                at = self._complete_at
                if at is None or at > t:
                    return fired
                self.now = at
                self._on_complete()
            fired += 1

    def submit(self, op: NandOp, now_us: float) -> None:
        """Commit ``op`` at ``now_us``: project its latency and enqueue.

        The caller must have advanced the die to ``now_us`` first
        (:meth:`advance`); submissions never travel back in time.
        """
        if now_us < self.now:
            raise ConfigError(
                f"op submitted at {now_us:g}us behind the die's last "
                f"event at {self.now:g}us"
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

    # -- commit-at-issue projections -----------------------------------
    def _project_read(self, op: NandOp, now_us: float) -> None:
        read_us = self.timings.read_us
        base = self.fg_tail if not op.background else max(self.fg_tail, self.bg_tail)
        infl = self.in_flight
        if base > now_us:
            # Behind committed read work of equal-or-higher priority.
            start = base
        elif infl is None:
            start = now_us
        elif not infl.is_write:
            # A background read is in flight; a foreground read starts
            # right behind it (jumping any queued background reads).
            start = self.in_flight_end
        else:
            # Program/erase in flight: suspend bounds the wait.  An
            # already-planned suspend (for an earlier queued read) fires
            # at its own time, and dispatch favours this read then.
            suspend_at = self._suspend_at
            if suspend_at is None:
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
                # Queued background reads the foreground read jumps.
                self.bg_tail += read_us
        if self.write_tail > start:
            # Pending write work this read preempts or precedes.
            self.write_tail += read_us

    def _project_write(self, op: NandOp, now_us: float) -> None:
        start = max(now_us, self.fg_tail, self.bg_tail, self.write_tail)
        op.projected_start = start
        op.projected_end = start + op.service_us
        self.write_tail = op.projected_end

    # -- dispatch / suspend machinery ----------------------------------
    def _start(self, op: NandOp, now_us: float) -> None:
        self.in_flight = op
        self._segment_start = now_us
        self.in_flight_end = self._complete_at = now_us + op.remaining_us

    def _plan_suspend(self, now_us: float) -> None:
        infl = self.in_flight
        if infl is None or not infl.is_write or self._suspend_at is not None:
            return
        at = now_us + self.timings.suspend_floor_us
        if at < self.in_flight_end:
            self._suspend_at = at
        # else: the write finishes within the floor; the read waits for
        # the natural completion (dispatch order still favours it).

    def _dispatch(self, now_us: float) -> None:
        if self.in_flight is not None:
            return
        for queue in (self.fg, self.bg, self.writes):
            if queue:
                self._start(queue.popleft(), now_us)
                return

    def _on_complete(self) -> None:
        self._complete_at = None
        op = self.in_flight
        assert op is not None  # completes are cancelled on suspend
        now = self.now
        op.consumed_us += now - self._segment_start
        op.completed_at = now
        self.completed_ops += 1
        self.in_flight = None
        self._dispatch(now)

    def _on_suspend(self) -> None:
        self._suspend_at = None
        infl = self.in_flight
        if infl is None or not infl.is_write:
            # The write this suspend targeted is gone (defensive; the
            # scheduling rules make this unreachable).
            self._dispatch(self.now)
            return
        now = self.now
        infl.consumed_us += now - self._segment_start
        infl.remaining_us = self.in_flight_end - now
        infl.preemptions += 1
        self.preemptions += 1
        # The suspended op's completion is cancelled; its residual work
        # re-enters at the FRONT of the write queue, so it resumes
        # before any later-queued write starts.
        self._complete_at = None
        self.writes.appendleft(infl)
        self.in_flight = None
        self._dispatch(now)
