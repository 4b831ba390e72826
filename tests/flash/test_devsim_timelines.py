"""Hand-computed µs timelines for the device lanes (DESIGN.md §9).

Default timings: read 65, program 350, erase 3500, transfer 12,
suspend floor 180 (µs).  Every scenario where the analytic horizon
model is exact is asserted against *both* lanes with identical numbers;
the event lane's extra fidelity (a preempted write's in-device residual
delaying later writes) is pinned as an explicit, documented divergence.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.flash.devsim import make_latency_model
from repro.flash.devsim.frontend import FrontendScheduler
from repro.flash.devsim.nand import OP_ERASE, OP_READ, Die, NandOp
from repro.flash.latency import NandTimings


@pytest.fixture(params=["analytic", "event"])
def lane(request):
    return request.param


def _model(lane, **kwargs):
    kwargs.setdefault("num_channels", 8)
    kwargs.setdefault("read_cache_pages", 0)
    return make_latency_model(lane, **kwargs)


class TestBothLanes:
    """Scenarios where the two lanes must agree to the microsecond."""

    def test_unloaded_read(self, lane):
        # 65 read + 12 transfer.
        assert _model(lane).read(0, 0.0) == 77.0

    def test_read_behind_program_hits_suspend_floor(self, lane):
        m = _model(lane)
        # Program occupies channel 0 until t=350; host sees 350 + 12.
        assert m.program(0, 0.0) == 362.0
        # Read at t=10 starts at min(350, 10+180)=190, ends 255:
        # 255 - 10 + 12 = 257.
        assert m.read(0, 10.0) == 257.0

    def test_two_reads_collide_on_one_channel(self, lane):
        m = _model(lane)
        # Pages 0 and 8 share channel 0: 65 + 65 + 12 = 142 worst-case.
        assert m.read_many([0, 8], 0.0) == 142.0

    def test_reads_on_distinct_channels_overlap(self, lane):
        assert _model(lane).read_many([0, 1, 2, 3], 0.0) == 77.0

    def test_erase_suspend_resume(self, lane):
        m = _model(lane)
        # Erase is command-only: no transfer_us (the documented
        # asymmetry, test_latency.py::TestErasePath pins the analytic
        # side).
        assert m.erase(0, 0.0) == 3500.0
        # Read at t=100 behind the erase: starts at min(3500, 100+180)
        # = 280, ends 345; 345 - 100 + 12 = 257.
        assert m.read(0, 100.0) == 257.0

    def test_batched_sg_flush_stripes(self, lane):
        # 16 pages over 8 channels: two programs deep per channel,
        # 350 + 350 + 12 = 712 worst-case.
        assert _model(lane).program_many(list(range(16)), 0.0) == 712.0

    def test_read_buffer_hit_skips_the_device(self, lane):
        m = _model(lane, read_cache_pages=8)
        assert m.read(0, 0.0) == 77.0
        # Buffered re-read: transfer only, no channel/die occupancy.
        assert m.read(0, 0.0) == 12.0

    def test_reset_clears_device_state(self, lane):
        m = _model(lane)
        m.program(0, 0.0)
        assert not m.idle_at(1.0)
        m.reset()
        assert m.idle_at(0.0)
        assert m.read(0, 0.0) == 77.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("read_us", math.nan),
            ("read_us", -65.0),
            ("program_us", -5.0),
            ("erase_us", math.inf),
            ("suspend_floor_us", -1.0),
            ("num_channels", 0),
            ("read_cache_pages", -1),
        ],
    )
    def test_rejects_bad_device_config(self, lane, field, value):
        # A NaN or negative service time would otherwise come back as a
        # NaN or negative latency.
        with pytest.raises(ConfigError, match=field):
            if hasattr(NandTimings, field):
                _model(lane, timings=NandTimings(**{field: value}))
            else:
                _model(lane, **{field: value})


class TestEventLaneDivergence:
    """Where the event lane is *more* faithful than the analytic one."""

    def test_preempted_program_residual_delays_later_writes(self):
        # Program [0,350); read at t=10 suspends it at 190, runs
        # [190,255), residual resumes — in-device completion slips to
        # 415.  A program at t=400 queues behind the residual on the
        # event lane (415+350-400+12 = 377) while the analytic lane has
        # forgotten the residual (max(400,350)+350-400+12 = 362).
        analytic = _model("analytic")
        event = _model("event")
        for m in (analytic, event):
            assert m.program(0, 0.0) == 362.0
            assert m.read(0, 10.0) == 257.0
        assert analytic.program(0, 400.0) == 362.0
        assert event.program(0, 400.0) == 377.0

    def test_suspend_splits_the_erase_exactly(self):
        die = Die(0, NandTimings())
        erase = NandOp(OP_ERASE, 0, 3500.0)
        die.submit(erase, 0.0)
        assert die.advance(100.0) == 0
        read = NandOp(OP_READ, 0, 65.0)
        die.submit(read, 100.0)
        # Suspend, read completion, erase completion.
        assert die.advance(math.inf) == 3
        # Suspend fires at 100+180=280; read runs [280,345); the erase
        # executed [0,280) + [345,3565) — all 3500us of it.
        assert read.completed_at == 345.0
        assert erase.completed_at == 3565.0
        assert erase.consumed_us == 3500.0
        assert erase.preemptions == 1
        assert die.preemptions == 1
        assert die.completed_ops == 2

    def test_model_counts_completions(self):
        m = _model("event")
        m.program(0, 0.0)
        m.read(0, 10.0)
        assert m.completed_ops == 0  # still simulating
        m.drain()
        assert m.completed_ops == 2
        assert m.total_preemptions == 1

    def test_submission_behind_the_clock_rejected(self):
        m = _model("event")
        m.read(0, 100.0)
        with pytest.raises(ConfigError):
            m.read(0, 50.0)


class TestFrontendGoldens:
    def test_closed_loop_priority_ordering(self):
        # QD=1, four simultaneous arrivals, classes [1, 0, 1, 0], fixed
        # 10us service.  Index 0 issues immediately (slot free); after
        # that class 0 drains first: 1, then 3, then 2.
        frontend = FrontendScheduler(
            [0.0, 0.0, 0.0, 0.0],
            class_ids=[1, 0, 1, 0],
            num_classes=2,
            queue_depth=1,
        )
        frontend.run(lambda index, now: 10.0)
        assert list(frontend.issue_us) == [0.0, 10.0, 30.0, 20.0]
        assert list(frontend.complete_us) == [10.0, 20.0, 40.0, 30.0]
        assert frontend.max_outstanding == 1

    def test_open_loop_issues_at_arrival(self):
        arrivals = [0.0, 5.0, 6.0, 50.0]
        frontend = FrontendScheduler(arrivals, queue_depth=None)
        frontend.run(lambda index, now: 100.0)
        assert list(frontend.issue_us) == arrivals
        # All four overlap: the last arrival (t=50) lands while the
        # first three (completing at 100/105/106) are still in flight.
        assert frontend.max_outstanding == 4

    def test_queueing_delay_appears_in_sojourn(self):
        frontend = FrontendScheduler([0.0, 0.0], queue_depth=1)
        frontend.run(lambda index, now: 10.0)
        # Second request waited a full service time before issuing.
        assert list(frontend.issue_us) == [0.0, 10.0]
        assert list(frontend.complete_us) == [10.0, 20.0]

    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            FrontendScheduler([0.0], queue_depth=0)
        with pytest.raises(ConfigError):
            FrontendScheduler([5.0, 1.0])  # decreasing arrivals
        with pytest.raises(ConfigError):
            FrontendScheduler([0.0], class_ids=[2], num_classes=2)
        with pytest.raises(ConfigError):
            FrontendScheduler([0.0, 1.0], class_ids=[0])  # length mismatch
        with pytest.raises(ConfigError):
            FrontendScheduler([0.0], num_classes=0)

    def test_rejects_negative_service_latency(self):
        frontend = FrontendScheduler([0.0])
        with pytest.raises(ConfigError):
            frontend.run(lambda index, now: -1.0)
