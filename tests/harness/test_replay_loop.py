"""The one replay loop: boundary plan, kernel hand-off, degenerate inputs.

``harness/runner.py`` owns how a replay is chunked and sampled on every
lane; the whole-trace kernels only advance to the boundaries it hands
them.  These tests pin the three places that contract can break: the
boundary builder both ``replay`` and ``CacheCluster.replay`` call, the
mid-replay hand-off from a bailing kernel to the batched executor, and
empty / one-request traces and degenerate sampling inputs on every
replay path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.log_structured import LogStructuredCache
from repro.cluster import CacheCluster, ClusterConfig
from repro.cluster.cluster import ZONES_PER_SHARD
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.engines import geometry, make_engine
from repro.errors import ConfigError
from repro.flash.devsim import make_latency_model
from repro.harness.closed_loop import replay_closed_loop
from repro.harness.runner import REPLAY_KERNELS, replay, replay_plan
from repro.workloads.arrivals import fixed_arrivals
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace


def _assert_finals_identical(fa, fb, keys=None):
    """Snapshot equality (nan == nan), over ``keys`` or every key."""
    if keys is None:
        assert fa.keys() == fb.keys()
        keys = fa.keys()
    for key in keys:
        va, vb = fa[key], fb[key]
        assert va == vb or (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ), f"{key}: {va!r} != {vb!r}"


def _assert_results_identical(a, b):
    """Every observable of two ReplayResults matches bit-for-bit."""
    _assert_finals_identical(a.final, b.final)
    assert a.series.keys() == b.series.keys()
    for name in a.series:
        rows_a, rows_b = a.series[name].as_rows(), b.series[name].as_rows()
        assert len(rows_a) == len(rows_b), name
        for (xa, va), (xb, vb) in zip(rows_a, rows_b):
            assert xa == xb
            assert va == vb or (math.isnan(va) and math.isnan(vb))
    assert a.latency._values == b.latency._values
    assert a.latency._window_bounds == b.latency._window_bounds


def _mixed_trace(n, num_keys, seed, hi=400, p=(0.8, 0.15, 0.05)):
    rng = np.random.default_rng(seed)
    return Trace(
        ops=rng.choice(
            np.array([OP_GET, OP_SET, OP_DELETE], dtype=np.uint8),
            size=n,
            p=list(p),
        ),
        keys=rng.integers(0, num_keys, size=n),
        sizes=rng.integers(40, hi, size=n),
        name="mixed",
    )


def _wrapping_trace():
    """Working set far beyond ``tiny_geometry``: both kernels bail."""
    return _mixed_trace(n=12_000, num_keys=2_000, seed=3)


def _fitting_trace():
    """Flush-heavy but within ``small_geometry``: both kernels complete."""
    return _mixed_trace(
        n=8_000, num_keys=1_500, seed=7, hi=700, p=(0.6, 0.35, 0.05)
    )


def _build(name, geometry):
    if name == "Log":
        return LogStructuredCache(geometry)
    return NemoCache(
        geometry,
        NemoConfig(flush_threshold=4, sgs_per_index_group=3, bf_capacity_per_set=20),
    )


ENGINES = ["Log", "Nemo"]


class TestReplayPlan:
    def test_default_layout(self):
        boundaries, samples, mark = replay_plan(1000)
        assert boundaries == sorted(samples) and boundaries[-1] == 1000
        assert boundaries[:3] == [15, 30, 45]  # 1000 // 64
        assert mark is None

    def test_mark_is_a_boundary_not_a_sample(self):
        boundaries, samples, mark = replay_plan(
            100, sample_every=40, mark_window_at=50
        )
        assert samples == {40, 80, 100}
        assert mark == 50
        assert boundaries == [40, 50, 80, 100]

    def test_explicit_positions_keep_zero_and_the_end(self):
        # A cluster shard samples its empty prefix at local position 0;
        # the end of the trace is replayed to even when not sampled.
        boundaries, samples, _ = replay_plan(10, sample_at=[0, 4, 11])
        assert samples == {0, 4}
        assert boundaries == [0, 4, 10]

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_lengths(self, n):
        boundaries, samples, mark = replay_plan(n, mark_window_at=n // 2)
        assert samples == ({1} if n else set())
        assert boundaries == [n] and mark is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 0},
            {"sample_every": -5},
            {"sample_at": [3, -1]},
            {"mark_window_at": -1},
        ],
    )
    def test_rejects_bad_layouts(self, kwargs):
        with pytest.raises(ConfigError):
            replay_plan(100, **kwargs)


@pytest.mark.parametrize("name", ENGINES)
class TestKernelHandOff:
    """A bailing kernel hands the rest of the trace to the batched
    executor inside the same loop, wherever the boundaries fall."""

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_sample_boundary_around_the_bail(
        self, name, delta, tiny_geometry, kernel_advances
    ):
        trace = _wrapping_trace()
        n = len(trace)
        replay(_build(name, tiny_geometry), trace, kernel="columnar")
        bail = next(reached for stop, reached in kernel_advances if reached < stop)
        assert 1 < bail < n - 4
        kernel_advances.clear()

        mark = (bail + n) // 2  # inside the batched suffix
        kwargs = dict(
            sample_at=[bail // 2, bail + delta, mark + 1, n],
            mark_window_at=mark,
            record_latency=True,
        )
        batched = replay(
            _build(name, tiny_geometry), trace, kernel="batched", **kwargs
        )
        columnar_run = replay(
            _build(name, tiny_geometry), trace, kernel="columnar", **kwargs
        )
        # The kernel bailed at the same request, once, whatever the
        # chunking, and was not advanced again.
        assert [r for stop, r in kernel_advances if r < stop] == [bail]
        assert kernel_advances[-1][1] == bail
        _assert_results_identical(columnar_run, batched)

    @pytest.mark.parametrize(
        "lane", ["scalar", "batched", "columnar-fit", "columnar-bail"]
    )
    def test_every_lane_samples_through_the_instance_snapshot(
        self, name, lane, tiny_geometry, small_geometry, kernel_advances
    ):
        """One ``metrics_snapshot`` per sample point, asking only for the
        sampled metrics, plus the full final one, looked up on the engine
        *instance* (benchmarks/e2e shadows it there to time it)."""
        fits = lane == "columnar-fit"
        engine = _build(name, small_geometry if fits else tiny_geometry)
        inner = engine.metrics_snapshot
        snapshots = []

        def counting(keys=None):
            snapshots.append(keys)
            return inner(keys)

        engine.metrics_snapshot = counting
        result = replay(
            engine,
            _fitting_trace() if fits else _wrapping_trace(),
            kernel=lane.split("-")[0],
            sample_every=997,
        )
        bailed = any(reached < stop for stop, reached in kernel_advances)
        assert bailed == (lane == "columnar-bail")
        assert bool(kernel_advances) == lane.startswith("columnar")
        assert snapshots[:-1] == [tuple(result.series)] * len(result.series["wa"])
        assert snapshots[-1] is None


def _short_trace(n):
    return Trace(
        ops=np.full(n, OP_GET, dtype=np.uint8),
        keys=np.arange(n, dtype=np.int64),
        sizes=np.full(n, 100, dtype=np.int64),
        name=f"short-{n}",
    )


@pytest.mark.parametrize("n", [0, 1])
class TestDegenerateTraces:
    """Empty and one-request traces on every replay path: same finals
    whatever the lane, ``n`` default series rows, nothing untyped."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_replay_lanes_agree(self, name, n, small_geometry):
        results = {
            kernel: replay(_build(name, small_geometry), _short_trace(n), kernel=kernel)
            for kernel in REPLAY_KERNELS
        }
        for kernel, result in results.items():
            assert result.num_requests == n
            assert len(result.series["wa"]) == n, kernel
            assert result.final["lookups"] == n
            _assert_finals_identical(result.final, results["scalar"].final)

    def test_explicit_position_zero_is_sampled(self, n, small_geometry):
        result = replay(
            LogStructuredCache(small_geometry), _short_trace(n), sample_at=[0]
        )
        assert result.series["wa"].xs == [0]
        assert result.final["lookups"] == n  # still replayed to the end

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("engine", ["log", "nemo"])
    def test_cluster_follows_the_runner(self, engine, shards, n):
        trace = _short_trace(n)
        cluster = CacheCluster(ClusterConfig(num_shards=shards, engine=engine))
        merged = cluster.replay(trace, jobs=1)
        serial = replay(make_engine(engine, geometry(ZONES_PER_SHARD)), trace)
        assert merged.num_requests == n
        assert sum(merged.shard_requests) == n
        _assert_finals_identical(merged.final, serial.final, merged.final.keys())

    def test_closed_loop_matches_open_loop(self, n, small_geometry):
        def engine():
            return LogStructuredCache(
                small_geometry, latency=make_latency_model("event", num_channels=8)
            )

        trace = _short_trace(n)
        closed = replay_closed_loop(
            engine(), trace, arrival_us=fixed_arrivals(n, 100_000.0)
        )
        assert closed.num_requests == n
        assert closed.events_fired == 2 * n
        assert len(closed.sojourn_us) == n
        _assert_finals_identical(
            closed.final, replay(engine(), trace, kernel="scalar").final
        )


@pytest.mark.parametrize("sample_every", [0, -5])
class TestDegenerateSampling:
    """A non-positive stride is a ``ConfigError`` on every path — not a
    ``range()`` ``ValueError``, a one-sample run or a silent default."""

    @pytest.mark.parametrize("kernel", REPLAY_KERNELS)
    def test_replay_rejects(self, sample_every, kernel, small_geometry):
        engine = LogStructuredCache(small_geometry)
        with pytest.raises(ConfigError, match="sample_every"):
            replay(
                engine, _short_trace(1), sample_every=sample_every, kernel=kernel
            )
        assert engine.counters.lookups == 0  # rejected before replaying
