"""Front-end issue scheduler: arrivals, queue depth, priority classes.

The frontend sits between an arrival process and a *service function*
(anything that maps ``(request_index, issue_time_us) -> service
latency_us`` — the closed-loop replay harness wires it to a cache
engine whose device carries a latency model).  Two issue disciplines:

- **Open loop** (``queue_depth=None``): every request issues at its
  arrival time regardless of outstanding work — the discipline the
  batched replay lane implements implicitly with its fixed
  inter-arrival clock.
- **Closed loop** (``queue_depth=N``): at most N requests are in
  flight; arrivals beyond that wait in per-class FIFO queues and issue
  when a slot frees, lowest class id first (class 0 is the
  highest-priority tier).  Sojourn time (completion − arrival) then
  includes queueing delay, which is what makes bursty tails visible.

:meth:`FrontendScheduler.run` merges two time-sorted streams: the
arrival array (sorted on input, so an index walks it) and a sorted
list of in-flight completions, at most ``queue_depth`` entries.
Events fire in ``(time, seq)`` order, arrival ``i`` carrying seq ``i``
and the k-th issued request's completion seq ``n + k``: at equal
timestamps an arrival fires before any completion, and completions
fire in issue order.  After every event the scheduler issues as many
waiting requests as free slots allow.

Arrival times and class ids come in as plain arrays precomputed by
:mod:`repro.workloads.arrivals` from seeded streams; the frontend
itself is RNG-free, so identical inputs replay identical event
sequences (the determinism property test relies on this).

Per-request state is flat 8-byte buffers, never one Python object per
request: the constructor copies the arrivals (plus an ``inf`` sentinel
past the last one, so the merge reads the next arrival without an
``i < n`` test) and the class ids into contiguous ``float64`` /
``int64`` numpy arrays read through ``memoryview``s, and :meth:`run`
writes ``issue_us`` / ``complete_us`` into preallocated ``array('d')``
buffers — 32 B per request in all, where ``float`` lists cost about 80.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import deque
from collections.abc import Sequence
from math import inf
from typing import Callable

import numpy as np

from repro.errors import ConfigError

#: Service callback: ``(request_index, issue_time_us) -> latency_us``.
ServiceFn = Callable[[int, float], float]

EVENT_ARRIVAL = "frontend-arrival"
EVENT_COMPLETE = "frontend-complete"


class FrontendScheduler:
    """Issue requests against a service function in simulated-time order."""

    def __init__(
        self,
        arrival_us: Sequence[float] | np.ndarray,
        *,
        class_ids: Sequence[int] | np.ndarray | None = None,
        num_classes: int = 1,
        queue_depth: int | None = None,
    ) -> None:
        n = len(arrival_us)
        if queue_depth is not None and queue_depth <= 0:
            raise ConfigError("queue_depth must be positive (or None for open loop)")
        if num_classes <= 0:
            raise ConfigError("num_classes must be positive")
        arrivals = np.asarray(arrival_us, dtype=np.float64)
        # The merge in run() compares arrivals with `<=`; a NaN would
        # silently reorder the schedule, so it is rejected here.
        if not (np.isfinite(arrivals).all() and (np.diff(arrivals, prepend=0.0) >= 0.0).all()):
            raise ConfigError("arrival_us must be finite, non-negative and non-decreasing")
        classes = np.zeros(n, dtype=np.int64) if class_ids is None else np.asarray(class_ids)
        if len(classes) != n:
            raise ConfigError(f"class_ids has {len(classes)} entries for {n} arrivals")
        bad = classes[(classes < 0) | (classes >= num_classes)]
        if bad.size:
            raise ConfigError(f"class id {bad[0]} outside [0, {num_classes})")
        padded = np.empty(n + 1, dtype=np.float64)
        padded[:n] = arrivals
        padded[n] = inf  # the merge's end-of-arrivals sentinel
        self._arrivals = memoryview(padded).toreadonly()
        #: Read-only views of private copies of the validated inputs.
        self.arrival_us = self._arrivals[:n]
        self.class_ids = memoryview(np.array(classes, dtype=np.int64)).toreadonly()
        self.num_classes = num_classes
        self.queue_depth = queue_depth
        #: Filled by :meth:`run`: per-request issue/completion times.
        self.issue_us = array("d", [0.0]) * n
        self.complete_us = array("d", [0.0]) * n
        self.outstanding = self.max_outstanding = 0
        self._trace: list[tuple[float, int, str]] | None = None

    def enable_trace(self) -> list[tuple[float, int, str]]:
        """Record every fired event as ``(time, seq, kind)``.

        Returns the (live) list, restarted by each :meth:`run`; the
        determinism tests compare two runs' traces for equality.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    def run(self, service: ServiceFn) -> int:
        """Drive every request through ``service``; returns events fired.

        After the run, the ``array('d')`` buffers :attr:`issue_us` and
        :attr:`complete_us` hold each request's issue and completion
        timestamps (µs); sojourn time is ``complete_us[i] -
        arrival_us[i]``.  Calling it again replays all arrivals from an
        empty queue and overwrites them in place.
        """
        arrivals, classes, trace = self._arrivals, self.class_ids, self._trace
        issue_us, complete_us, n = self.issue_us, self.complete_us, len(classes)
        # Open loop: at most n requests are ever in flight.
        depth = n if self.queue_depth is None else self.queue_depth
        pending: list[deque[int]] = [deque() for _ in range(self.num_classes)]
        in_flight: list[tuple[float, int]] = []  # sorted (complete_time, seq)
        if trace is not None:
            trace.clear()
        # ``arrival`` is arrival ``i``'s time, read once; ``inf`` (the
        # sentinel) once every arrival has fired.
        i, next_seq, waiting, peak = 0, n, 0, 0
        arrival: float = arrivals[0]
        while arrival < inf or in_flight:
            if not in_flight or arrival <= in_flight[0][0]:
                now = arrival
                pending[classes[i]].append(i)
                waiting += 1
                if trace is not None:
                    trace.append((now, i, EVENT_ARRIVAL))
                i += 1
                arrival = arrivals[i]
            else:
                now, seq = in_flight.pop(0)
                if trace is not None:
                    trace.append((now, seq, EVENT_COMPLETE))
            while waiting and len(in_flight) < depth:
                for queue in pending:  # class 0 first
                    if queue:
                        index = queue.popleft()
                        break
                waiting -= 1
                latency = service(index, now)
                if not 0.0 <= latency < inf:
                    raise ConfigError(f"service latency must be finite and >= 0, got {latency:g}")
                issue_us[index] = now
                complete_us[index] = done = now + latency
                insort(in_flight, (done, next_seq))
                next_seq += 1
                if len(in_flight) > peak:
                    peak = len(in_flight)
        self.outstanding, self.max_outstanding = len(in_flight), peak
        return 2 * n
