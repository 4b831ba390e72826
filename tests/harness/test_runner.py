"""Integration tests for the replay harness."""

import numpy as np
import pytest

from repro.baselines.log_structured import LogStructuredCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.latency import LatencyModel
from repro.harness.runner import ARRIVAL_RATE, replay
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace


def make_trace(ops_keys_sizes):
    ops, keys, sizes = zip(*ops_keys_sizes)
    return Trace(
        ops=np.array(ops, dtype=np.uint8),
        keys=np.array(keys),
        sizes=np.array(sizes),
        name="unit",
    )


@pytest.fixture
def engine(small_geometry):
    return LogStructuredCache(small_geometry)


class TestSemantics:
    def test_get_miss_admits(self, engine):
        trace = make_trace([(OP_GET, 1, 100), (OP_GET, 1, 100)])
        result = replay(engine, trace)
        assert engine.counters.lookups == 2
        assert engine.counters.hits == 1  # read-through admission
        assert result.miss_ratio == 0.5

    def test_set_inserts_without_lookup(self, engine):
        trace = make_trace([(OP_SET, 1, 100)])
        replay(engine, trace)
        assert engine.counters.lookups == 0
        assert engine.object_count() == 1

    def test_delete_removes(self, engine):
        trace = make_trace(
            [(OP_SET, 1, 100), (OP_DELETE, 1, 100), (OP_GET, 1, 100)]
        )
        replay(engine, trace)
        assert engine.counters.deletes == 1
        assert engine.counters.hits == 0


class TestCollection:
    def test_samples_recorded(self, engine, small_trace):
        result = replay(engine, small_trace, sample_every=5000)
        assert len(result.series["wa"]) >= len(small_trace) // 5000
        assert result.final["wa"] == pytest.approx(
            engine.write_amplification, nan_ok=True
        )

    def test_latency_recorded_with_model(self, small_geometry, small_trace):
        engine = NemoCache(
            small_geometry,
            NemoConfig(flush_threshold=4, sgs_per_index_group=3),
            latency=LatencyModel(),
        )
        result = replay(engine, small_trace, record_latency=True)
        gets = int((small_trace.ops == OP_GET).sum())
        assert len(result.latency) == gets
        assert result.latency.percentile(99) >= 0.0

    def test_window_marking(self, engine, small_trace):
        result = replay(
            engine,
            small_trace,
            record_latency=True,
            mark_window_at=len(small_trace) // 2,
        )
        windows = result.latency.window_percentiles([50.0])
        assert len(windows) == 2

    def test_summary_mentions_engine(self, engine, small_trace):
        result = replay(engine, small_trace)
        assert "Log" in result.summary()
        assert "WA" in result.summary()

    def test_sim_clock_advances(self, engine):
        """Each request advances the clock by ``1e6 / ARRIVAL_RATE`` µs."""
        trace = make_trace([(OP_GET, 1, 100)] * 100)
        calls = []
        inner = engine.lookup_many

        def spy(keys, sizes, now_us, step_us, *args, **kwargs):
            calls.append((len(keys), now_us, step_us))
            return inner(keys, sizes, now_us, step_us, *args, **kwargs)

        engine.lookup_many = spy
        replay(engine, trace, sample_every=25)
        step = 1e6 / ARRIVAL_RATE
        assert [(n, step_us) for n, _, step_us in calls] == [(25, step)] * 4
        assert [now for _, now, _ in calls] == pytest.approx(
            [0.0, 25 * step, 50 * step, 75 * step]
        )
