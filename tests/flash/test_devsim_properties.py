"""Property tests for the discrete-event device lane (DESIGN.md §9).

Five contracts, each driven by Hypothesis-random inputs:

1. self-advancing dies reproduce the shared-event-loop reference
   (``devsim_reference.py``) exactly: latencies, per-op timelines, die
   counters and drain counts;
2. within one priority class a die serves ops FIFO;
3. program/erase suspend never loses residual work — every op's
   consumed service time equals its nominal service time at completion;
4. identical seeds produce identical event sequences (frontend and
   device model both);
5. the event lane's aggregate engine counters equal the analytic
   lane's on random traces, for all five Table 4 engines.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.kangaroo import KangarooCache
from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.devsim import EventLatencyModel
from repro.flash.devsim.frontend import FrontendScheduler
from repro.flash.devsim.nand import OP_ERASE, OP_PROGRAM, OP_READ, Die, NandOp
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import NandTimings
from repro.harness.runner import replay
from repro.workloads.arrivals import assign_classes, bursty_arrivals
from repro.workloads.mixer import merged_twitter_trace
from tests.flash.devsim_reference import ReferenceLatencyModel


def _make_die() -> Die:
    return Die(0, NandTimings())


def _make_op(kind: str, timings=NandTimings()) -> NandOp:
    if kind == "write":
        return NandOp(OP_PROGRAM, 0, timings.program_us)
    if kind == "erase":
        return NandOp(OP_ERASE, 0, timings.erase_us)
    return NandOp(OP_READ, 0, timings.read_us, background=(kind == "bg"))


def _die_state(die) -> tuple:
    return (
        die.completed_ops, die.preemptions, die.fg_tail, die.bg_tail,
        die.write_tail, die.in_flight_end, len(die.fg), len(die.bg), len(die.writes),
    )


def _op_state(op: NandOp) -> tuple:
    return (
        op.kind, op.page, op.background, op.issued_at, op.projected_start,
        op.projected_end, op.remaining_us, op.completed_at, op.consumed_us,
        op.preemptions,
    )


class _RecordingDie(Die):
    """A library die that appends every op it accepts to ``ops``."""

    def __init__(self, index: int, timings: NandTimings, ops: list[NandOp]) -> None:
        super().__init__(index, timings)
        self.ops = ops

    def submit(self, op: NandOp, now_us: float) -> None:
        super().submit(op, now_us)
        self.ops.append(op)


class _RecordingModel(EventLatencyModel):
    """The library model, keeping every op it submits, in submit order:
    its dies record them, since reads build their ops inline."""

    def _build(self) -> None:
        super()._build()
        self.ops: list[NandOp] = []
        self.dies = [
            _RecordingDie(i, self.timings, self.ops) for i in range(self.num_channels)
        ]


_CALLS = ["read", "bg_read", "program", "erase", "read_many", "bg_read_many", "program_many"]
#: Gaps between calls; "suspend" / "complete" jump exactly to the
#: reference device's next pending suspend / completion.
_GAPS = [0.0, 0.0, 10.0, 65.0, 115.0, 180.0, 350.0, 1000.0, "suspend", "complete"]


@st.composite
def _streams(draw):
    num_channels = draw(st.sampled_from([1, 2, 4]))
    read_cache_pages = draw(st.sampled_from([0, 4]))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_CALLS),
                st.lists(st.integers(0, 11), min_size=1, max_size=6),
                st.sampled_from(_GAPS),
                st.booleans(),  # compare counters and op timelines after the call
            ),
            min_size=1,
            max_size=40,
        )
    )
    return num_channels, read_cache_pages, steps


def _next_event(reference: ReferenceLatencyModel, kind: str, now: float) -> float:
    attr = "_suspend_event" if kind == "suspend" else "_complete_event"
    events = (getattr(die, attr) for die in reference.dies)
    return min((e.time for e in events if e is not None and e.time >= now), default=now)


def _issue(model, call: str, pages: list[int], now: float) -> float:
    if call in ("read", "bg_read"):
        return model.read(pages[0], now, background=(call == "bg_read"))
    if call == "program":
        return model.program(pages[0], now)
    if call == "erase":
        return model.erase(pages[0], now)
    if call == "program_many":
        return model.program_many(pages, now)
    return model.read_many(pages, now, background=(call == "bg_read_many"))


class TestAgainstLoopReference:
    """Self-advancing dies against the shared event loop they replaced."""

    @staticmethod
    def _assert_same_device(model, reference):
        assert model.completed_ops == reference.completed_ops
        assert model.total_preemptions == reference.total_preemptions
        assert [_die_state(d) for d in model.dies] == [_die_state(d) for d in reference.dies]
        assert [_op_state(op) for op in model.ops] == [_op_state(op) for op in reference.ops]

    @given(stream=_streams())
    @settings(max_examples=300, deadline=None)
    def test_random_multi_die_streams_match_the_event_loop(self, stream):
        num_channels, read_cache_pages, steps = stream
        model = _RecordingModel(num_channels=num_channels, read_cache_pages=read_cache_pages)
        reference = ReferenceLatencyModel(
            num_channels=num_channels, read_cache_pages=read_cache_pages
        )
        now = 0.0
        for call, pages, gap, check in steps:
            now = _next_event(reference, gap, now) if isinstance(gap, str) else now + gap
            assert _issue(model, call, pages, now) == _issue(reference, call, pages, now)
            if check:
                self._assert_same_device(model, reference)
        assert model.drain() == reference.drain()
        self._assert_same_device(model, reference)
        assert all(op.completed_at is not None for op in model.ops)


class TestDieQueues:
    @given(
        kinds=st.lists(
            st.sampled_from(["fg", "bg", "write", "erase"]),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_within_priority_class(self, kinds):
        die = _make_die()
        ops = []
        for kind in kinds:
            op = _make_op(kind)
            die.submit(op, 0.0)
            ops.append((kind, op))
        die.advance(math.inf)
        # Writes and erases share the write queue (one class).
        classes = {"fg": "fg", "bg": "bg", "write": "w", "erase": "w"}
        for cls in ("fg", "bg", "w"):
            done = [op.completed_at for k, op in ops if classes[k] == cls]
            assert all(c is not None for c in done)
            assert done == sorted(done)

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["fg", "bg", "write", "erase"]),
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_suspend_preserves_residual_work(self, steps):
        die = _make_die()
        ops = []
        now = 0.0
        for kind, gap in steps:
            now += gap
            die.advance(now)
            op = _make_op(kind)
            die.submit(op, now)
            ops.append(op)
        die.advance(math.inf)
        for op in ops:
            assert op.completed_at is not None
            # However many times it was suspended, every microsecond of
            # nominal service was actually executed.
            assert op.consumed_us == pytest.approx(op.service_us)
        assert die.completed_ops == len(ops)
        assert die.in_flight is None
        assert not die.fg and not die.bg and not die.writes


class TestDeterminism:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_identical_seeds_identical_frontend_sequences(self, seed, n):
        def run_once():
            arrivals = bursty_arrivals(n, 50_000.0, seed=seed)
            classes = assign_classes(n, (0.7, 0.3), seed=seed)
            frontend = FrontendScheduler(
                arrivals.tolist(),
                class_ids=classes.tolist(),
                num_classes=2,
                queue_depth=4,
            )
            trace = frontend.enable_trace()
            frontend.run(lambda index, now: float((index * 37) % 90) + 1.0)
            assert len(trace) == 2 * n
            return list(trace), list(frontend.issue_us), list(frontend.complete_us)

        assert run_once() == run_once()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identical_inputs_identical_device_sequences(self, seed):
        rng = np.random.default_rng(seed)
        pages = rng.integers(0, 64, size=100).tolist()
        kinds = rng.integers(0, 3, size=100).tolist()
        gaps = rng.uniform(0.0, 120.0, size=100).tolist()

        def run_once():
            model = EventLatencyModel(num_channels=8, read_cache_pages=4)
            now = 0.0
            latencies = []
            for page, kind, gap in zip(pages, kinds, gaps):
                now += gap
                if kind == 0:
                    latencies.append(model.read(page, now))
                elif kind == 1:
                    latencies.append(model.program(page, now))
                else:
                    latencies.append(model.erase(page, now))
            fired = model.drain()
            return latencies, fired, [_die_state(die) for die in model.dies]

        assert run_once() == run_once()


def _parity_geometry() -> FlashGeometry:
    return FlashGeometry(
        page_size=4096, pages_per_block=64, num_blocks=16, blocks_per_zone=1
    )


def _parity_engines(geometry):
    """The five Table 4 engines, configured for the small geometry."""
    config = NemoConfig(
        flush_threshold=4, sgs_per_index_group=3, bf_capacity_per_set=20
    )
    return [
        LogStructuredCache(geometry),
        SetAssociativeCache(geometry, op_ratio=0.5),
        FairyWrenCache(geometry, log_fraction=0.05, op_ratio=0.05),
        KangarooCache(geometry, log_fraction=0.05, op_ratio=0.05),
        NemoCache(geometry, config),
    ]


def _assert_finals_identical(fa, fb):
    assert fa.keys() == fb.keys()
    for key in fa:
        va, vb = fa[key], fb[key]
        assert va == vb or (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ), f"{key}: {va!r} != {vb!r}"


class TestLaneCounterParity:
    """Aggregate counters are lane-invariant: the device timing model
    observes the request stream but never feeds back into cache
    decisions, so WA / miss ratio / op counts must match exactly."""

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(200, 600))
    @settings(max_examples=5, deadline=None)
    def test_all_five_engines(self, seed, n):
        trace = merged_twitter_trace(
            num_requests=n, wss_scale=1.0 / 2048, seed=seed
        )
        for index in range(5):
            analytic = replay(
                _parity_engines(_parity_geometry())[index],
                trace,
                latency_lane="analytic",
            )
            event = replay(
                _parity_engines(_parity_geometry())[index],
                trace,
                latency_lane="event",
            )
            _assert_finals_identical(event.final, analytic.final)
            assert event.latency_lane == "event"
            assert analytic.latency_lane == "analytic"
