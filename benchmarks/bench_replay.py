"""End-to-end replay-loop benchmarks (the harness hot path).

The first three targets replay the same micro merged-Twitter trace
against a fresh ``LogStructuredCache``:

- ``seed_reference`` — the original per-request loop (numpy scalar
  boxing, per-request instrumentation branches), kept verbatim as the
  baseline the fast lane is measured against;
- ``fast_path`` — ``replay()`` with default options (no latency
  recording): the chunked no-instrumentation lane;
- ``instrumented`` — ``replay()`` with latency recording, window marks
  and write-rate windows all enabled.

The columnar-lane targets (DESIGN.md §5) cover the whole-trace kernel:

- ``columnar`` — the bench cell on ``kernel="columnar"``;
- ``fig15_micro_columnar`` — the acceptance cell (the fig15 micro
  workload on the Log engine, latency-free), ratcheted at >= 5M req/s
  by ``benchmarks/check_regression.py`` via ``floor_requests_per_sec``;
- ``fig15_micro_nemo_batched`` / ``fig15_micro_nemo_columnar`` — the
  same workload on the Nemo engine, batched vs the whole-trace Nemo
  kernel; the columnar cell is ratcheted at >= 2.5M req/s.

``benchmarks/save_baseline.py`` records these as ``BENCH_replay.json``
with the fast-over-seed, columnar-over-batched (Log and Nemo) and
vs-pre-columnar speedups.  Every lane must produce identical final
metrics — asserted here and in ``tests/harness/test_runner_paths.py``.
"""

from __future__ import annotations

import time

from repro.baselines.log_structured import LogStructuredCache
from repro.harness.metrics import MetricSeries, WindowedRate
from repro.harness.percentile import LatencyRecorder
from repro.harness.runner import ReplayResult, replay
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET

NUM_REQUESTS = 120_000
_TRACE = None


def bench_trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = merged_twitter_trace(
            num_requests=NUM_REQUESTS, wss_scale=1.0 / 512, seed=0
        )
    return _TRACE


def bench_engine():
    from repro.flash.geometry import FlashGeometry

    return LogStructuredCache(
        FlashGeometry(
            page_size=4096, pages_per_block=64, num_blocks=48, blocks_per_zone=4
        )
    )


def seed_reference_replay(
    engine,
    trace,
    *,
    sample_every=None,
    arrival_rate=50_000.0,
    record_latency=False,
    write_rate_window_s=None,
    mark_window_at=None,
    sampled_metrics=("wa", "miss_ratio", "host_write_bytes"),
) -> ReplayResult:
    """The pre-fast-lane replay loop, verbatim (parity + bench baseline)."""
    n = len(trace)
    if sample_every is None:
        sample_every = max(1, n // 64)
    series = {m: MetricSeries(name=m) for m in sampled_metrics}
    latency = LatencyRecorder()
    write_rate = WindowedRate(write_rate_window_s) if write_rate_window_s else None
    ops, keys, sizes = trace.ops, trace.keys, trace.sizes
    step_us = 1e6 / arrival_rate

    t0 = time.perf_counter()
    now_us = 0.0
    for i in range(n):
        key = int(keys[i])
        size = int(sizes[i])
        op = ops[i]
        if op == OP_GET:
            result = engine.lookup(key, size, now_us=now_us)
            if record_latency:
                latency.record(result.latency_us)
            if not result.hit:
                engine.insert(key, size, now_us=now_us)
        elif op == OP_SET:
            engine.insert(key, size, now_us=now_us)
        elif op == OP_DELETE:
            engine.delete(key)
        now_us += step_us

        if mark_window_at is not None and i + 1 == mark_window_at:
            latency.mark_window()
        if (i + 1) % sample_every == 0 or i + 1 == n:
            snap = engine.metrics_snapshot()
            for m in sampled_metrics:
                series[m].record(i + 1, snap.get(m, float("nan")))
            if write_rate is not None:
                write_rate.update(now_us / 1e6, snap["host_write_bytes"])
    if write_rate is not None:
        write_rate.finish(now_us / 1e6)

    return ReplayResult(
        engine_name=engine.name,
        trace_name=trace.name,
        num_requests=n,
        final=engine.metrics_snapshot(),
        series=series,
        latency=latency,
        write_rate=write_rate,
        wall_seconds=time.perf_counter() - t0,
        sim_seconds=now_us / 1e6,
    )


def _bench(benchmark, fn):
    """A few timed rounds (replays are seconds-long; min is the signal)."""
    return benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)


def _record_throughput(benchmark, result):
    benchmark.extra_info["num_requests"] = result.num_requests
    benchmark.extra_info["wa"] = result.wa
    benchmark.extra_info["miss_ratio"] = result.miss_ratio


def test_replay_seed_reference(benchmark):
    trace = bench_trace()
    result = _bench(
        benchmark, lambda: seed_reference_replay(bench_engine(), trace)
    )
    _record_throughput(benchmark, result)


def test_replay_fast_path(benchmark):
    trace = bench_trace()
    result = _bench(benchmark, lambda: replay(bench_engine(), trace))
    _record_throughput(benchmark, result)
    # The fast lane must agree with the seed loop exactly.
    reference = seed_reference_replay(bench_engine(), trace)
    assert result.final == reference.final


def test_replay_instrumented(benchmark):
    trace = bench_trace()
    result = _bench(
        benchmark,
        lambda: replay(
            bench_engine(),
            trace,
            record_latency=True,
            write_rate_window_s=0.25,
            mark_window_at=len(trace) // 2,
        ),
    )
    _record_throughput(benchmark, result)


# ----------------------------------------------------------------------
# Columnar lane (DESIGN.md §5)
# ----------------------------------------------------------------------

#: ISSUE 6 acceptance floor for the fig15 micro cell on the columnar
#: lane; ``check_regression.py`` fails any refresh that dips below it.
FIG15_MICRO_FLOOR_RPS = 5_000_000


def fig15_micro_cell():
    """The fig15 micro workload: Log engine, latency-free geometry."""
    from repro.experiments.common import scale_params, twitter_trace

    geometry, num_requests = scale_params("micro")
    return LogStructuredCache(geometry), twitter_trace(num_requests)


def test_replay_columnar(benchmark):
    trace = bench_trace()
    result = _bench(
        benchmark, lambda: replay(bench_engine(), trace, kernel="columnar")
    )
    _record_throughput(benchmark, result)
    # The columnar kernel must agree with the batched lane exactly.
    reference = replay(bench_engine(), trace)
    assert result.final == reference.final


def test_replay_fig15_micro_columnar(benchmark):
    engine, trace = fig15_micro_cell()
    # Warm the trace's cached decision columns, then time only the
    # replay itself: a fresh engine per round is built in (untimed)
    # setup so the floor gates kernel throughput, not construction.
    replay(fig15_micro_cell()[0], trace, kernel="columnar")
    result = benchmark.pedantic(
        lambda e: replay(e, trace, kernel="columnar"),
        setup=lambda: ((fig15_micro_cell()[0],), {}),
        rounds=5,
        iterations=1,
    )
    _record_throughput(benchmark, result)
    benchmark.extra_info["floor_requests_per_sec"] = FIG15_MICRO_FLOOR_RPS
    reference = replay(engine, trace)
    assert result.final == reference.final


# ----------------------------------------------------------------------
# Nemo whole-trace kernel (fig15 micro cell on the Nemo engine)
# ----------------------------------------------------------------------

#: Acceptance floor for the fig15 Nemo micro cell on the whole-trace
#: Nemo kernel; ``check_regression.py`` fails any refresh below it.
FIG15_MICRO_NEMO_FLOOR_RPS = 2_500_000


def fig15_micro_nemo_cell():
    """The fig15 micro workload on the Nemo engine, latency-free."""
    from repro.core.nemo import NemoCache
    from repro.experiments.common import nemo_config, scale_params, twitter_trace

    geometry, num_requests = scale_params("micro")
    return NemoCache(geometry, nemo_config()), twitter_trace(num_requests)


def _assert_finals_identical(fa, fb):
    """Nemo snapshots carry nan cells (pbfg ratio on zero touches), so
    lane parity needs a nan-aware compare, not dict equality."""
    import math

    assert fa.keys() == fb.keys()
    for key in fa:
        va, vb = fa[key], fb[key]
        assert va == vb or (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ), f"{key}: {va!r} != {vb!r}"


def test_replay_fig15_micro_nemo_batched(benchmark):
    engine, trace = fig15_micro_nemo_cell()
    result = benchmark.pedantic(
        lambda e: replay(e, trace),
        setup=lambda: ((fig15_micro_nemo_cell()[0],), {}),
        rounds=3,
        iterations=1,
    )
    _record_throughput(benchmark, result)


def test_replay_fig15_micro_nemo_columnar(benchmark):
    engine, trace = fig15_micro_nemo_cell()
    # Warm the trace's cached decision columns, then time only the
    # replay itself (fresh engine per round in untimed setup), so the
    # floor gates kernel throughput, not construction or hashing.
    replay(fig15_micro_nemo_cell()[0], trace, kernel="columnar")
    result = benchmark.pedantic(
        lambda e: replay(e, trace, kernel="columnar"),
        setup=lambda: ((fig15_micro_nemo_cell()[0],), {}),
        rounds=5,
        iterations=1,
    )
    _record_throughput(benchmark, result)
    benchmark.extra_info["floor_requests_per_sec"] = FIG15_MICRO_NEMO_FLOOR_RPS
    assert result.kernel == "columnar" and result.notes == []
    reference = replay(engine, trace)
    _assert_finals_identical(result.final, reference.final)
