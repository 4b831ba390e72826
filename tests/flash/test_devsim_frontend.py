"""Oracle and edge tests for the two-stream frontend scheduler.

``FrontendScheduler.run`` merges the sorted arrival array with a short
sorted list of in-flight completions.  Its predecessor pushed every arrival and completion
through an :class:`~tests.flash.devsim_reference.EventLoop` as
``Event`` objects; that body is kept here as :class:`ReferenceScheduler`, and the
property test requires the two to agree on every observable — return
value, timestamps, service-call order and the ``(time, seq, kind)``
trace — on schedules dense with tied timestamps and zero latencies.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.flash.devsim.frontend import (
    EVENT_ARRIVAL,
    EVENT_COMPLETE,
    FrontendScheduler,
)
from tests.flash.devsim_reference import Event, EventLoop


class ReferenceScheduler:
    """The pre-merge scheduler: 2n ``Event`` objects on one n-entry heap."""

    def __init__(self, arrival_us, class_ids, num_classes, queue_depth):
        n = len(arrival_us)
        self.arrival_us = list(arrival_us)
        self.class_ids = list(class_ids)
        self.queue_depth = queue_depth
        self.issue_us = [0.0] * n
        self.complete_us = [0.0] * n
        self.outstanding = 0
        self.max_outstanding = 0
        self._pending = [deque() for _ in range(num_classes)]
        self.loop = EventLoop()
        self.loop.register_handler(EVENT_ARRIVAL, self._on_arrival)
        self.loop.register_handler(EVENT_COMPLETE, self._on_complete)
        self._service = None

    def _on_arrival(self, event: Event) -> None:
        self._pending[self.class_ids[event.payload]].append(event.payload)
        self._try_issue()

    def _on_complete(self, event: Event) -> None:
        self.outstanding -= 1
        self._try_issue()

    def _slots_free(self) -> bool:
        return self.queue_depth is None or self.outstanding < self.queue_depth

    def _try_issue(self) -> None:
        while self._slots_free():
            index = None
            for queue in self._pending:  # class 0 first
                if queue:
                    index = queue.popleft()
                    break
            if index is None:
                return
            now = self.loop.now
            latency = self._service(index, now)
            self.issue_us[index] = now
            self.complete_us[index] = now + latency
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
            self.loop.schedule(now + latency, EVENT_COMPLETE, index)

    def run(self, service) -> int:
        self._service = service
        for index, t in enumerate(self.arrival_us):
            self.loop.schedule(t, EVENT_ARRIVAL, index)
        return self.loop.run_until_idle()


def _drive(scheduler, trace, latencies):
    """Run ``scheduler``; return everything a caller can observe."""
    calls: list[tuple[int, float]] = []

    def service(index: int, now: float) -> float:
        calls.append((index, now))
        return latencies[index]

    fired = scheduler.run(service)
    return (
        fired,
        list(scheduler.issue_us),
        list(scheduler.complete_us),
        scheduler.max_outstanding,
        scheduler.outstanding,
        calls,
        list(trace),
    )


def _column(values, n):
    return st.lists(values, min_size=n, max_size=n)


@st.composite
def _schedules(draw):
    n = draw(st.integers(0, 60))
    num_classes = draw(st.integers(1, 3))
    gaps = draw(_column(st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0]), n))
    latencies = draw(_column(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 10.0]), n))
    classes = draw(_column(st.integers(0, num_classes - 1), n))
    queue_depth = draw(st.sampled_from([None, 1, 2, 4]))
    arrivals = list(itertools.accumulate(gaps))
    return arrivals, latencies, classes, num_classes, queue_depth


class TestAgainstEventLoopOracle:
    @given(schedule=_schedules())
    @settings(deadline=None)
    def test_matches_the_event_loop_scheduler(self, schedule):
        arrivals, latencies, classes, num_classes, queue_depth = schedule
        reference = ReferenceScheduler(arrivals, classes, num_classes, queue_depth)
        merged = FrontendScheduler(
            arrivals, class_ids=classes, num_classes=num_classes, queue_depth=queue_depth
        )
        expected = _drive(reference, reference.loop.enable_trace(), latencies)
        assert _drive(merged, merged.enable_trace(), latencies) == expected
        assert expected[0] == 2 * len(arrivals)


def _schedule(frontend: FrontendScheduler) -> tuple[list[float], list[float], int]:
    return list(frontend.issue_us), list(frontend.complete_us), frontend.max_outstanding


def _bursty(n: int = 200) -> tuple[list[float], list[int]]:
    arrivals = [float((i // 5) * 7) for i in range(n)]  # bursts of 5 tied arrivals
    return arrivals, [i % 3 for i in range(n)]


def _latency(index: int, now: float) -> float:
    return float((index * 37) % 11)  # includes zero-latency completions


class TestRejections:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_arrivals(self, bad):
        for arrivals in ([bad], [0.0, 5.0, bad, 1.0], [0.0, bad]):
            with pytest.raises(ConfigError, match="arrival_us"):
                FrontendScheduler(arrivals, queue_depth=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -math.inf])
    def test_rejects_non_finite_or_negative_latency(self, bad):
        frontend = FrontendScheduler([0.0, 1.0], queue_depth=1)
        with pytest.raises(ConfigError, match="latency"):
            frontend.run(lambda index, now: bad if index else 1.0)

    def test_rejects_negative_class_id(self):
        with pytest.raises(ConfigError, match="class id -1"):
            FrontendScheduler([0.0, 0.0], class_ids=[0, -1], num_classes=2)


class TestEdges:
    @pytest.mark.parametrize("queue_depth", [1, None])
    def test_empty_and_single_request(self, queue_depth):
        empty = FrontendScheduler([], queue_depth=queue_depth)
        assert empty.run(_latency) == 0
        assert list(empty.issue_us) == [] and list(empty.complete_us) == []
        assert empty.max_outstanding == 0

        one = FrontendScheduler([3.0], queue_depth=queue_depth)
        assert one.run(lambda index, now: 4.0) == 2
        assert (list(one.issue_us), list(one.complete_us)) == ([3.0], [7.0])
        assert (one.max_outstanding, one.outstanding) == (1, 0)

    def test_simultaneous_arrivals_issue_by_class_then_fifo(self):
        classes = [2, 1, 0, 2, 1, 0, 0]
        frontend = FrontendScheduler(
            [0.0] * len(classes), class_ids=classes, num_classes=3, queue_depth=1
        )
        order: list[int] = []

        def service(index: int, now: float) -> float:
            order.append(index)
            return 10.0

        frontend.run(service)
        # Index 0 takes the free slot on arrival; the rest queue and
        # drain class 0 -> 1 -> 2, FIFO within a class.
        assert order == [0, 2, 5, 6, 1, 4, 3]
        assert list(frontend.issue_us) == [0.0, 40.0, 10.0, 60.0, 50.0, 20.0, 30.0]

    def test_run_is_repeatable(self):
        arrivals, classes = _bursty()
        frontend = FrontendScheduler(arrivals, class_ids=classes, num_classes=3, queue_depth=2)
        trace = frontend.enable_trace()
        fired = frontend.run(_latency)
        first = (_schedule(frontend), list(trace))
        # A second run replays from an empty queue: same schedule, and
        # the live trace restarts instead of growing to 4n entries.
        assert frontend.run(_latency) == fired == 2 * len(arrivals)
        assert (_schedule(frontend), list(trace)) == first

    @pytest.mark.parametrize("queue_depth", [2, None])
    def test_trace_records_2n_strictly_ordered_triples_and_changes_nothing(
        self, queue_depth
    ):
        arrivals, classes = _bursty()
        n = len(arrivals)

        def build() -> FrontendScheduler:
            return FrontendScheduler(
                arrivals, class_ids=classes, num_classes=3, queue_depth=queue_depth
            )

        untraced, traced = build(), build()
        trace = traced.enable_trace()
        assert traced.enable_trace() is trace  # idempotent, same live list
        assert untraced.run(_latency) == traced.run(_latency) == 2 * n
        assert _schedule(untraced) == _schedule(traced)

        assert len(trace) == 2 * n
        keys = [(time, seq) for time, seq, _ in trace]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        arrivals_seen = [(t, s) for t, s, kind in trace if kind == EVENT_ARRIVAL]
        assert arrivals_seen == list(zip(arrivals, range(n)))
        completions = sorted(s for _, s, kind in trace if kind == EVENT_COMPLETE)
        assert completions == list(range(n, 2 * n))
