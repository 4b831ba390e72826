"""Byte-identity tests for the whole-trace columnar Nemo kernel.

Mirrors ``test_columnar.py`` for the Nemo entry of ``KERNEL_REGISTRY``:
the kernel must be indistinguishable from the batched lane in every
observable, across the flush-free fast case,
the flush-heavy completed case, and the pool-exhaustion bail (columnar
prefix + batched suffix).  Also pins the registry dispatch itself:
``kernel_for`` / ``kernel_ineligible_reason`` and the fallback note the
runner emits for unregistered engines.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.errors import ReadError
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.zone import ZoneState
from repro.harness.columnar import (
    KERNEL_REGISTRY,
    kernel_for,
    kernel_ineligible_reason,
    nemo_kernel_ineligible_reason,
)
from repro.harness.runner import replay
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace


def _assert_finals_identical(fa, fb):
    """Snapshot dict equality, nan-aware (nan == nan here)."""
    assert fa.keys() == fb.keys()
    for key in fa:
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
        for (xa, va), (xb, vb) in zip(
            a.series[name].as_rows(), b.series[name].as_rows()
        ):
            assert xa == xb
            assert va == vb or (math.isnan(va) and math.isnan(vb))
    assert a.latency._values == b.latency._values
    assert a.latency._window_bounds == b.latency._window_bounds
    assert a.num_requests == b.num_requests


def _mixed_trace(n=4000, num_keys=300, seed=7, hi=400, p=(0.8, 0.15, 0.05)):
    """GET-heavy trace with SETs and DELETEs over a small key universe."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        np.array([OP_GET, OP_SET, OP_DELETE], dtype=np.uint8),
        size=n,
        p=list(p),
    )
    return Trace(
        ops=ops,
        keys=rng.integers(0, num_keys, size=n),
        sizes=rng.integers(40, hi, size=n),
        name="mixed",
    )


def _flush_trace():
    """SET-heavy trace that drives flushes (pool SGs, WA > 0) without
    exhausting the small geometry's free zones — the kernel completes."""
    return _mixed_trace(
        n=8_000, num_keys=1_500, seed=7, hi=700, p=(0.6, 0.35, 0.05)
    )


def _eviction_trace():
    """Working set far beyond the tiny geometry: fills the SG pool and
    forces the kernel to bail into the batched suffix (early evictions,
    writeback, pool churn all happen past the bail point)."""
    return _mixed_trace(n=12_000, num_keys=2_000, seed=3)


def _config() -> NemoConfig:
    return NemoConfig(
        flush_threshold=4, sgs_per_index_group=3, bf_capacity_per_set=20
    )


@pytest.fixture(params=["statistical"])
def config(request):
    """Nemo's config; the id names its filter model (the real-filter
    oracle is ``tests/core/reference``, which the kernel never runs)."""
    return _config()


class TestNemoColumnarParity:
    def test_flush_heavy_replay(self, small_geometry, config):
        trace = _flush_trace()
        batched = replay(NemoCache(small_geometry, config), trace)
        columnar = replay(
            NemoCache(small_geometry, config),
            trace,
            kernel="columnar",
        )
        assert columnar.kernel == "columnar"
        assert columnar.notes == []
        # The point of this cell: SGs actually flushed to flash.
        assert batched.final["pool_sgs"] > 0
        assert batched.final["wa"] > 0
        _assert_results_identical(columnar, batched)

    def test_instrumented_replay(self, small_geometry, config):
        trace = _flush_trace()
        kwargs = dict(
            sample_every=517,
            record_latency=True,
            mark_window_at=len(trace) // 3,
        )
        batched = replay(
            NemoCache(small_geometry, config), trace, **kwargs
        )
        columnar = replay(
            NemoCache(small_geometry, config),
            trace,
            kernel="columnar",
            **kwargs,
        )
        _assert_results_identical(columnar, batched)

    def test_read_side_metrics_sampled(self, small_geometry, config):
        """Sampling consult-side metrics forces the kernel's read
        settlement at every boundary (the deferral gate switches off)."""
        kwargs = dict(
            sample_every=331,
            sampled_metrics=(
                "wa",
                "host_read_bytes",
                "false_positive_reads",
                "pbfg_pool_read_ratio",
            ),
        )
        trace = _flush_trace()
        batched = replay(
            NemoCache(small_geometry, config), trace, **kwargs
        )
        columnar = replay(
            NemoCache(small_geometry, config),
            trace,
            kernel="columnar",
            **kwargs,
        )
        _assert_results_identical(columnar, batched)

    def test_engine_end_state_identical(self, small_geometry, config):
        trace = _flush_trace()
        eng_b = NemoCache(small_geometry, config)
        eng_c = NemoCache(small_geometry, config)
        replay(eng_b, trace)
        replay(eng_c, trace, kernel="columnar")
        _assert_finals_identical(
            eng_c.metrics_snapshot(), eng_b.metrics_snapshot()
        )
        assert eng_c.object_count() == eng_b.object_count()
        assert len(eng_c.pool) == len(eng_b.pool)

    def test_pool_exhaustion_bails_to_batched_suffix(
        self, tiny_geometry, config
    ):
        trace = _eviction_trace()
        batched = replay(NemoCache(tiny_geometry, config), trace)
        columnar = replay(
            NemoCache(tiny_geometry, config),
            trace,
            kernel="columnar",
        )
        # The point of this cell: the pool churned (bail was taken).
        assert batched.final["evicted_objects"] > 0
        assert batched.final["writeback_objects"] > 0
        _assert_results_identical(columnar, batched)

    def test_bail_instrumented(self, tiny_geometry, config):
        trace = _eviction_trace()
        kwargs = dict(
            record_latency=True, mark_window_at=6_000, sample_every=997
        )
        batched = replay(
            NemoCache(tiny_geometry, config), trace, **kwargs
        )
        columnar = replay(
            NemoCache(tiny_geometry, config),
            trace,
            kernel="columnar",
            **kwargs,
        )
        _assert_results_identical(columnar, batched)


class TestNemoRandomTraces:
    @given(
        ops=st.lists(
            st.sampled_from([OP_GET, OP_SET, OP_DELETE]),
            min_size=1,
            max_size=120,
        ),
        seed=st.integers(0, 2**31 - 1),
        num_keys=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_identical(self, ops, seed, num_keys):
        tiny_geometry = FlashGeometry(
            page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
        )
        config = _config()
        rng = np.random.default_rng(seed)
        n = len(ops)
        trace = Trace(
            ops=np.asarray(ops, dtype=np.uint8),
            keys=rng.integers(0, num_keys, size=n),
            sizes=rng.integers(1, 1000, size=n),
        )
        batched = replay(
            NemoCache(tiny_geometry, config), trace, sample_every=17
        )
        columnar = replay(
            NemoCache(tiny_geometry, config),
            trace,
            sample_every=17,
            kernel="columnar",
        )
        _assert_results_identical(columnar, batched)


class TestNemoKernelCache:
    def test_decision_columns_cached_on_trace(self, small_geometry):
        trace = _flush_trace()
        assert trace._kernel_cache == {}
        replay(
            NemoCache(small_geometry, _config()),
            trace,
            kernel="columnar",
        )
        assert "nemo-chain" in trace._kernel_cache
        assert any(
            isinstance(k, tuple) and k[0] == "nemo-ins-offs"
            for k in trace._kernel_cache
        )
        chain = trace._kernel_cache["nemo-chain"]
        second = replay(
            NemoCache(small_geometry, _config()),
            trace,
            kernel="columnar",
        )
        # Reused, not recomputed — and the replay stays identical.
        assert trace._kernel_cache["nemo-chain"] is chain
        first = replay(NemoCache(small_geometry, _config()), trace)
        _assert_results_identical(second, first)


class TestNemoEligibility:
    def test_virgin_nemo_engine_eligible(self, small_geometry):
        assert nemo_kernel_ineligible_reason(
            NemoCache(small_geometry, _config()),
            _flush_trace()
        ) is None

    def test_non_nemo_engine_ineligible(self, small_geometry):
        reason = nemo_kernel_ineligible_reason(
            SetAssociativeCache(small_geometry), _flush_trace()
        )
        assert reason is not None and "NemoCache" in reason

    def test_warm_engine_ineligible(self, small_geometry):
        engine = NemoCache(small_geometry, _config())
        engine.insert(1, 100)
        reason = nemo_kernel_ineligible_reason(engine, _flush_trace())
        assert reason is not None and "not virgin" in reason

    def test_latency_model_ineligible(self, small_geometry):
        engine = NemoCache(
            small_geometry, _config(), latency=LatencyModel()
        )
        reason = nemo_kernel_ineligible_reason(engine, _flush_trace())
        assert reason is not None and "latency models" in reason

    def test_oversized_object_ineligible(self, small_geometry):
        trace = Trace(
            ops=np.array([OP_SET], dtype=np.uint8),
            keys=np.array([1]),
            sizes=np.array([small_geometry.page_size + 1]),
        )
        reason = nemo_kernel_ineligible_reason(
            NemoCache(small_geometry, _config()), trace
        )
        assert reason is not None and "oversized object" in reason

    def test_empty_trace_ineligible(self, small_geometry):
        trace = Trace(
            ops=np.zeros(0, dtype=np.uint8),
            keys=np.zeros(0, dtype=np.int64),
            sizes=np.zeros(0, dtype=np.int64),
        )
        reason = nemo_kernel_ineligible_reason(
            NemoCache(small_geometry, _config()), trace
        )
        assert reason is not None and "empty trace" in reason


class TestKernelRegistry:
    def test_registered_engines(self):
        assert LogStructuredCache in KERNEL_REGISTRY
        assert NemoCache in KERNEL_REGISTRY
        assert KERNEL_REGISTRY[NemoCache].name == "nemo"
        assert KERNEL_REGISTRY[LogStructuredCache].name == "log"

    def test_kernel_for_dispatches_by_type(self, small_geometry):
        nemo = NemoCache(small_geometry, _config())
        assert kernel_for(nemo) is KERNEL_REGISTRY[NemoCache]
        assert kernel_for(SetAssociativeCache(small_geometry)) is None

    def test_registered_engines_eligible(self, small_geometry):
        trace = _flush_trace()
        assert kernel_ineligible_reason(
            NemoCache(small_geometry, _config()), trace
        ) is None
        assert kernel_ineligible_reason(
            LogStructuredCache(small_geometry), trace
        ) is None

    def test_unregistered_engine_reason_lists_registry(self, small_geometry):
        reason = kernel_ineligible_reason(
            SetAssociativeCache(small_geometry), _flush_trace()
        )
        assert reason is not None
        assert "has no whole-trace columnar kernel" in reason
        assert "LogStructuredCache" in reason and "NemoCache" in reason

    def test_unregistered_engine_falls_back_with_note(self, small_geometry):
        trace = _flush_trace()
        reference = replay(SetAssociativeCache(small_geometry), trace)
        fallback = replay(
            SetAssociativeCache(small_geometry), trace, kernel="columnar"
        )
        assert len(fallback.notes) == 1
        assert "falling back to batched dispatch" in fallback.notes[0]
        _assert_results_identical(fallback, reference)

    def test_ineligible_nemo_falls_back_with_note(self, small_geometry):
        """A registered engine that fails eligibility (warm state) also
        demotes to batched dispatch with the reason in the note."""
        trace = _flush_trace()
        warm = NemoCache(small_geometry, _config())
        warm.insert(1, 100)
        result = replay(warm, trace, kernel="columnar")
        assert len(result.notes) == 1
        assert "not virgin" in result.notes[0]


# ----------------------------------------------------------------------
# Scale regime: live index groups, index-cache churn, index-pool reads
# ----------------------------------------------------------------------
def _scale_geometry() -> FlashGeometry:
    """48 zones x 256 KiB: a dozen SGs flush within a few 10k requests."""
    return FlashGeometry(
        page_size=4096, pages_per_block=64, num_blocks=48, blocks_per_zone=1
    )


def _scale_config() -> NemoConfig:
    """Four index pages per group, and an index cache smaller than the
    live index so PBFG consults keep missing into the index pool."""
    return dataclasses.replace(
        _config(), bf_capacity_per_set=40, cached_index_ratio=0.25
    )


def _scale_trace(n: int) -> Trace:
    """Zipf-skewed GET-heavy trace over a few thousand keys."""
    rng = np.random.default_rng(7)
    ops = rng.choice(
        np.array([OP_GET, OP_SET, OP_DELETE], dtype=np.uint8),
        size=n,
        p=[0.85, 0.13, 0.02],
    )
    return Trace(
        ops=ops,
        keys=(rng.zipf(1.2, size=n) % 6000).astype(np.int64),
        sizes=rng.integers(40, 700, size=n),
        name="scale",
    )


def _deep_state(engine: NemoCache) -> dict[str, object]:
    """Engine end state beyond ``metrics_snapshot``: everything the
    flash-consult side of a lookup mutates."""
    cache = engine.index_cache
    return {
        "pbfg": (
            engine.pbfg_lookups,
            engine.pbfg_lookups_from_pool,
            engine.pbfg_touches,
            engine.pbfg_pool_reads,
        ),
        "index_cache": (cache.hits, cache.misses, list(cache._fifo)),
        "hotness_bits": list(engine.hotness._bits.items()),
        "rng": engine._rng.getstate(),
        "nand_reads": engine.device.nand.read_count,
    }


class TestNemoScaleRegime:
    @pytest.mark.parametrize("n", [60_000], ids=["statistical-60000"])
    def test_live_groups_end_state_identical(self, n):
        trace = _scale_trace(n)
        eng_b = NemoCache(_scale_geometry(), _scale_config())
        eng_c = NemoCache(_scale_geometry(), _scale_config())
        batched = replay(eng_b, trace)
        columnar = replay(eng_c, trace, kernel="columnar")
        assert columnar.kernel == "columnar" and columnar.notes == []
        # The point of this cell: consults walk live index groups and
        # some of them miss the index cache into the index pool.
        eng_b.index_pool.check_invariants()
        assert eng_b.index_pool.live_group_count() >= 2
        assert eng_b.pbfg_pool_reads >= 1
        assert eng_b.index_cache.hits > eng_b.index_cache.misses
        _assert_results_identical(columnar, batched)
        assert _deep_state(eng_c) == _deep_state(eng_b)

    def test_each_snapshot_key_sampled_alone(self):
        """Sampling any one ``metrics_snapshot`` key yields the batched
        lane's series — the kernel may defer read-side work only past
        boundaries where no sampled key can observe it."""
        trace = _scale_trace(20_000)
        probe = NemoCache(_scale_geometry(), _scale_config())
        metric_keys = tuple(probe.metrics_snapshot())
        assert NemoCache.CONSULT_METRICS <= set(metric_keys)
        batched = replay(
            probe, trace, sampled_metrics=metric_keys, sample_every=500
        )
        for key in metric_keys:
            columnar = replay(
                NemoCache(_scale_geometry(), _scale_config()),
                trace,
                kernel="columnar",
                sampled_metrics=(key,),
                sample_every=500,
            )
            assert columnar.kernel == "columnar"
            got = columnar.series[key].as_rows()
            want = batched.series[key].as_rows()
            assert len(got) == len(want)
            for (xa, va), (xb, vb) in zip(got, want):
                assert xa == xb
                assert va == vb or (math.isnan(va) and math.isnan(vb)), key


class _CountingRandom(random.Random):
    """``random.Random`` that counts the calls the FP model makes.

    Overrides ``getrandbits`` too, so ``randrange`` keeps drawing bits
    (a subclass overriding only ``random`` would switch ``randrange``
    onto the float stream).
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.calls: dict[str, int] = dict.fromkeys(
            ("random", "randrange", "getstate", "setstate"), 0
        )

    def random(self) -> float:
        self.calls["random"] += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        return super().getrandbits(k)

    def randrange(self, *args, **kwargs) -> int:
        self.calls["randrange"] += 1
        return super().randrange(*args, **kwargs)

    def getstate(self):
        self.calls["getstate"] += 1
        return super().getstate()

    def setstate(self, state) -> None:
        self.calls["setstate"] += 1
        super().setstate(state)


class TestNemoDrawCount:
    def test_one_draw_per_scanning_consult(self):
        """The kernel draws exactly what the scalar FP model draws: one
        ``random()`` per consult that scans an SG, one ``randrange`` per
        false positive, and never rewinds the stream."""
        trace = _scale_trace(60_000)
        engines = {}
        for kernel in ("batched", "columnar"):
            engine = NemoCache(_scale_geometry(), _scale_config())
            engine._rng = _CountingRandom(engine.config.rng_seed)
            assert replay(engine, trace, kernel=kernel).kernel == kernel
            engines[kernel] = engine
        calls = engines["columnar"]._rng.calls
        assert calls == engines["batched"]._rng.calls
        assert calls["getstate"] == calls["setstate"] == 0
        assert calls["randrange"] == engines["columnar"].false_positive_reads > 0
        assert calls["random"] > calls["randrange"]


class TestNemoKernelReadValidation:
    def test_unprogrammed_pool_zone_raises(self, small_geometry):
        """The kernel batches candidate/FP page reads without touching
        the NAND page states; its per-span stand-in is that every pool
        SG's zones are FULL, and a violation is a ``ReadError``."""
        engine = NemoCache(small_geometry, _config())
        flush = engine._flush_front

        def flush_then_reopen(*, now_us: float = 0.0) -> None:
            flush(now_us=now_us)
            zone = engine.device.zones[engine.pool[-1].zone_id]
            zone.state = ZoneState.OPEN

        engine._flush_front = flush_then_reopen
        with pytest.raises(ReadError):
            replay(engine, _flush_trace(), kernel="columnar")
