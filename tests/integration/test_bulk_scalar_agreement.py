"""Every registered engine's bulk ops must agree with the scalar loop.

The batched replay dispatch calls ``lookup_many`` / ``insert_many`` /
``delete_many``; engines override them with inlined fast paths.  The
contract (signatures checked by ``mypy --strict`` and
``tests/baselines/test_base.py``, behaviour here) is
that each override is observationally identical to the base-class
default — the plain loop over the scalar methods — including the
simulated-clock accumulation order, so metrics stay byte-identical.

Two identically-configured instances of each registered engine replay
the same short mixed GET/SET/DELETE trace, one through its (possibly
overridden) bulk methods and one through the unbound base-class
defaults, then their metric snapshots must match exactly, and so must
the latencies a GET run records on every latency lane: the inline
loops serve timed and recorded runs too, and a flash hit on a bad
page raises the scalar lane's typed error.  The closed-loop
``service_fn`` closure is held to the same contract against
:func:`scalar_service_fn`, the scalar lookup / insert / delete closure
kept here as the oracle, on every latency lane.

The base-class default GET run is itself the engine's ``_lookup_at``
probe, so Nemo's three GET bodies (the inline ``lookup_many``,
``_lookup_at`` and the test-side :func:`reference_get`, one helper call
per step) are also compared three ways.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import engines
from repro.baselines.base import CacheEngine
from repro.engines import ENGINE_NAMES
from repro.errors import AlignmentError, ReadError
from repro.flash.devsim import make_latency_model
from repro.flash.device import PAGE_ERASED
from repro.flash.geometry import FlashGeometry
from repro.harness.runner import replay
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace
from tests.core.reference import reference_get

STEP_US = 37.0


def make_geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=16, blocks_per_zone=2
    )


def make_engine(name):
    params = {"flush_threshold": 4, "sgs_per_index_group": 2} if name == "nemo" else {}
    return engines.make_engine(name, make_geometry(), **params)


def make_runs(seed=7, num_runs=80, key_space=400):
    """Consecutive same-op runs, the shape the harness dispatches."""
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(num_runs):
        op = rng.choice(["get", "set", "delete"], p=[0.6, 0.3, 0.1])
        length = int(rng.integers(1, 24))
        keys = [int(k) for k in rng.integers(0, key_space, size=length)]
        sizes = [int(s) for s in rng.integers(40, 900, size=length)]
        runs.append((op, keys, sizes))
    return runs


def drive_bulk(engine, runs, record=None):
    now_us = 0.0
    for op, keys, sizes in runs:
        if op == "get":
            now_us = engine.lookup_many(keys, sizes, now_us, STEP_US, record)
        elif op == "set":
            now_us = engine.insert_many(keys, sizes, now_us, STEP_US)
        else:
            now_us = engine.delete_many(keys, now_us, STEP_US)
    return now_us


def drive_scalar(engine, runs, record=None):
    """Same runs through the base-class defaults: the scalar loops (a GET
    run is ``_lookup_at`` then ``_insert_at`` on a miss, per request)."""
    now_us = 0.0
    for op, keys, sizes in runs:
        if op == "get":
            now_us = CacheEngine.lookup_many(
                engine, keys, sizes, now_us, STEP_US, record
            )
        elif op == "set":
            now_us = CacheEngine.insert_many(engine, keys, sizes, now_us, STEP_US)
        else:
            now_us = CacheEngine.delete_many(engine, keys, now_us, STEP_US)
    return now_us


def assert_snapshots_identical(a, b):
    assert a.keys() == b.keys()
    for metric in a:
        va, vb = a[metric], b[metric]
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), metric
        else:
            assert va == vb, f"{metric}: bulk={va!r} scalar={vb!r}"


@pytest.mark.parametrize("name", ENGINE_NAMES)
class TestBulkScalarAgreement:
    def test_metrics_identical(self, name):
        bulk_engine = make_engine(name)
        scalar_engine = make_engine(name)
        runs = make_runs()

        clock_bulk = drive_bulk(bulk_engine, runs)
        clock_scalar = drive_scalar(scalar_engine, runs)

        assert clock_bulk == clock_scalar
        assert_snapshots_identical(
            bulk_engine.metrics_snapshot(), scalar_engine.metrics_snapshot()
        )
        assert bulk_engine.object_count() == scalar_engine.object_count()

    @pytest.mark.parametrize("lane", [None, "analytic", "event"])
    def test_recorded_latencies_identical(self, name, lane):
        assert_recorded_latencies_agree(make_engine(name), make_engine(name), lane)


def assert_recorded_latencies_agree(bulk_engine, scalar_engine, lane):
    """A recorded GET run (``_lookup_at`` per request) vs the scalar loop on a
    twin engine: equal per-request latencies and final snapshots; on a
    timed lane, some GET pays a flash read."""
    for engine in (bulk_engine, scalar_engine):
        if lane is not None:
            engine.install_latency_model(make_latency_model(lane, num_channels=4))
    runs = make_runs(seed=13, num_runs=600, key_space=3000)

    lat_bulk, lat_scalar = [], []
    clock_bulk = drive_bulk(bulk_engine, runs, record=lat_bulk.append)
    clock_scalar = drive_scalar(scalar_engine, runs, record=lat_scalar.append)

    gets = sum(len(keys) for op, keys, _ in runs if op == "get")
    assert len(lat_bulk) == gets
    assert lat_bulk == lat_scalar
    if lane is not None:
        assert max(lat_bulk) > 0.0
    assert clock_bulk == clock_scalar
    assert_snapshots_identical(
        bulk_engine.metrics_snapshot(), scalar_engine.metrics_snapshot()
    )


def make_long_runs():
    """Enough distinct bytes to fill the device: Nemo flushes and evicts
    SGs, the HLog reclaims zones."""
    return make_runs(num_runs=600, key_space=3000)


@pytest.mark.parametrize("name", ["fw", "kg", "nemo"])
def test_long_run_reaches_the_inline_lanes(name):
    """The bulk run agrees with the scalar loop *and* gets to the code
    its inline lanes replace: Nemo's flash hits, false-positive reads
    and non-resident index consults; FW/KG's HLog zone reclaims."""
    assert_long_run_reaches_the_inline_lanes(name, lane=None)


@pytest.mark.parametrize("lane", ["analytic", "event"])
@pytest.mark.parametrize("name", ["fw", "kg", "nemo"])
def test_recorded_long_run_reaches_the_inline_lanes(name, lane):
    """The same long run, timed and recorded: the inline loops serve it,
    and every GET's latency equals the scalar loop's."""
    assert_long_run_reaches_the_inline_lanes(name, lane=lane)


def assert_long_run_reaches_the_inline_lanes(name, lane):
    bulk_engine = make_engine(name)
    scalar_engine = make_engine(name)
    runs = make_long_runs()
    lat_bulk, lat_scalar = [], []
    record_bulk = record_scalar = None
    if lane is not None:
        for engine in (bulk_engine, scalar_engine):
            engine.install_latency_model(make_latency_model(lane, num_channels=4))
        record_bulk, record_scalar = lat_bulk.append, lat_scalar.append

    assert drive_bulk(bulk_engine, runs, record_bulk) == drive_scalar(
        scalar_engine, runs, record_scalar
    )
    assert lat_bulk == lat_scalar
    if lane is not None:
        assert len(lat_bulk) == sum(len(keys) for op, keys, _ in runs if op == "get")
        assert max(lat_bulk) > 0.0
    assert_snapshots_identical(
        bulk_engine.metrics_snapshot(), scalar_engine.metrics_snapshot()
    )
    nand = bulk_engine.device.nand
    if name == "nemo":
        # Every NAND read is an index-pool page, a false positive, a
        # writeback or a flash hit's holder page.
        flash_hits = (
            nand.read_count
            - bulk_engine.pbfg_pool_reads
            - bulk_engine.false_positive_reads
            - bulk_engine.writeback_reads
        )
        assert flash_hits > 0
        assert bulk_engine.false_positive_reads > 0
        assert bulk_engine.pbfg_lookups_from_pool > 0
    else:
        bpz = bulk_engine.geometry.blocks_per_zone
        assert any(nand.block_erases[z * bpz] for z in bulk_engine.hlog.region.zone_ids)


@pytest.mark.parametrize("lane", ["analytic", "event"])
def test_recorded_batched_replay_never_takes_get_many(monkeypatch, lane):
    """A batched replay that records latencies on a timed lane runs every
    engine's inline GET loop: ``_get_many`` is left to the scalar lane."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batched GET run fell back to _get_many")

    monkeypatch.setattr(CacheEngine, "_get_many", refuse)
    runs = make_long_runs()
    trace = runs_to_trace(runs)
    gets = sum(len(keys) for op, keys, _ in runs if op == "get")
    for name in ENGINE_NAMES:
        engine = make_engine(name)
        engine.install_latency_model(make_latency_model(lane))
        result = replay(engine, trace, record_latency=True, kernel="batched")
        assert len(result.latency) == gets, name
        assert result.latency.percentile(100.0) > 0.0, name


def corrupt_a_flash_hit(case):
    """An engine holding one key whose flash copy claims the page one past
    the device's last: ``(engine, key)``.  ``case`` is an engine name, or
    ``fw/hlog`` / ``fw/hset`` / ``kg/hset`` for the FW/KG tier read."""
    name, _, tier = case.partition("/")
    engine = make_engine(name)
    if name == "log":
        engine._index[5] = (engine.device.nand._num_pages, 100)
        return engine, 5
    if name == "set":
        engine.insert_many([5], [100], 0.0, STEP_US)
        ftl = engine.device
        ftl._l2p[engine._placement_of(5)] = ftl.nand._num_pages
        return engine, 5
    if tier == "hlog":
        engine.insert_many([5], [100], 0.0, STEP_US)
        engine.hlog.buckets[engine._placement_of(5)][5].page = engine.device.nand._num_pages
        return engine, 5
    # A key in the set tier (HSet), read through ``location``.
    drive_bulk(engine, [run for run in make_long_runs() if run[0] == "set"])
    for key in range(3000):
        bucket = engine._placement_of(key)
        found = engine.hset.find(key, bucket)
        if engine.hlog.buckets[bucket].get(key) is None and found and found[0] >= 0:
            engine.hset.location[found[0]] = engine.device.nand._num_pages
            return engine, key
    raise AssertionError("no key reached the set tier")


@pytest.mark.parametrize("scalar", [False, True], ids=["batched", "scalar"])
@pytest.mark.parametrize("case", ["fw/hlog", "fw/hset", "kg/hset", "log", "set"])
def test_out_of_range_flash_page_raises_alignment_error(case, scalar):
    """A flash hit on a page past the device is the typed ``AlignmentError``
    that ``NandArray.read`` raises, on the inline loop as on the scalar
    lane — not a bare ``IndexError`` from the page-state array."""
    engine, key = corrupt_a_flash_hit(case)
    lookup_many = CacheEngine.lookup_many if scalar else type(engine).lookup_many
    with pytest.raises(AlignmentError, match="out of range"):
        lookup_many(engine, [key], [100], 0.0, STEP_US)


def drive_reference(engine, runs):
    """Same runs with every GET through :func:`reference_get`."""
    now_us = 0.0
    for op, keys, sizes in runs:
        if op == "get":
            for key, size in zip(keys, sizes):
                reference_get(engine, key, size, now_us)
                now_us += STEP_US
        elif op == "set":
            now_us = CacheEngine.insert_many(engine, keys, sizes, now_us, STEP_US)
        else:
            now_us = CacheEngine.delete_many(engine, keys, now_us, STEP_US)
    return now_us


def test_nemo_get_bodies_agree_with_the_reference():
    """Nemo's inline ``lookup_many``, its ``_lookup_at`` run and the
    scalar reference GET end in the same clock, snapshot and object
    count, over a run that reaches flash hits, false positives,
    non-resident index consults and writeback."""
    runs = make_runs(seed=13, num_runs=600, key_space=3000)
    inline, probe, reference = (make_engine("nemo") for _ in range(3))
    clock = drive_bulk(inline, runs)
    assert drive_scalar(probe, runs) == clock
    assert drive_reference(reference, runs) == clock
    for other in (probe, reference):
        assert_snapshots_identical(inline.metrics_snapshot(), other.metrics_snapshot())
        assert other.object_count() == inline.object_count()
    assert_nemo_lanes_reached(inline)


class TestNemoLatencyFreeLane:
    """Nemo's bulk GET loop settles the flash consult inline on a
    latency-free device; the holder-page read keeps NAND's checks."""

    def test_unprogrammed_holder_page_raises_read_error(self):
        engine = make_engine("nemo")
        drive_bulk(engine, [run for run in make_long_runs() if run[0] == "set"])
        key = next(
            k
            for k in engine._flash_index
            if engine.queue.find(engine._placement_of(k), k) is None
        )
        holder = engine._pool_map[engine._flash_index[key]]
        engine.device.nand._state[holder.page_of(engine._placement_of(key))] = PAGE_ERASED
        with pytest.raises(ReadError, match="not programmed"):
            engine.lookup_many([key], [100], 0.0, STEP_US)


class TestSetLatencyFreeLane:
    """Set's bulk GET loop validates and counts flash reads inline on a
    latency-free, fault-free device; ``_lookup_at`` (the device-stack
    chain) stays the reference."""

    def test_read_accounting_identical_after_hits(self):
        bulk_engine = make_engine("set")
        scalar_engine = make_engine("set")
        rng = np.random.default_rng(3)
        runs = []
        for _ in range(30):  # GET-only, few keys: mostly hits
            keys = [int(k) for k in rng.integers(0, 60, size=20)]
            runs.append(("get", keys, [100 + k for k in keys]))

        drive_bulk(bulk_engine, runs)
        drive_scalar(scalar_engine, runs)

        assert bulk_engine.counters.hits > 300
        assert bulk_engine.counters == scalar_engine.counters
        assert dataclasses.asdict(bulk_engine.stats) == dataclasses.asdict(
            scalar_engine.stats
        )
        assert (
            bulk_engine.device.nand.read_count
            == scalar_engine.device.nand.read_count
        )

    def test_unmapped_lba_hit_raises_read_error(self):
        engine = make_engine("set")
        engine.insert_many([5], [100], 0.0, STEP_US)
        engine.device.trim(engine._placement_of(5))
        with pytest.raises(ReadError, match="unmapped"):
            engine.lookup_many([5], [100], 0.0, STEP_US)

    def test_unprogrammed_page_hit_raises_read_error(self):
        engine = make_engine("set")
        engine.insert_many([5], [100], 0.0, STEP_US)
        ftl = engine.device
        ftl.nand._state[ftl._l2p[engine._placement_of(5)]] = PAGE_ERASED
        with pytest.raises(ReadError, match="not programmed"):
            engine.lookup_many([5], [100], 0.0, STEP_US)


def runs_to_trace(runs):
    """One request trace in run order (the closed loop's input shape)."""
    op_codes = {"get": OP_GET, "set": OP_SET, "delete": OP_DELETE}
    return Trace(
        ops=[op_codes[op] for op, keys, _ in runs for _ in keys],
        keys=[k for _, keys, _ in runs for k in keys],
        sizes=[s for _, _, sizes in runs for s in sizes],
        name="service-mix",
    )


def drive_service(service, n, seed=5):
    """Call ``service`` for every request on a non-decreasing clock
    (repeated timestamps included); returns the per-request latencies."""
    gaps = np.random.default_rng(seed).choice([0.0, 3.0, 41.0, 250.0], size=n)
    return [service(i, now_us) for i, now_us in enumerate(np.cumsum(gaps).tolist())]


def scalar_service_fn(engine, trace):
    """The oracle closure: GET = ``lookup`` + read-through ``insert`` on
    a miss, SET = ``insert``, DELETE = ``delete`` (both host-acked, 0)."""
    ops, keys, sizes = trace.ops.tolist(), trace.keys.tolist(), trace.sizes.tolist()

    def service(index, now_us):
        op = ops[index]
        if op == OP_GET:
            result = engine.lookup(keys[index], sizes[index], now_us)
            if not result.hit:
                engine.insert(keys[index], sizes[index], now_us)
            return result.latency_us
        if op == OP_SET:
            engine.insert(keys[index], sizes[index], now_us)
        elif op == OP_DELETE:
            engine.delete(keys[index])
        return 0.0

    return service


def assert_service_agrees(fast, reference, lane):
    """``fast.service_fn`` vs :func:`scalar_service_fn` on a twin engine:
    equal per-request latencies and final snapshots."""
    for engine in (fast, reference):
        if lane is not None:
            engine.install_latency_model(make_latency_model(lane, num_channels=4))
    trace = runs_to_trace(make_long_runs())
    lat_fast = drive_service(fast.service_fn(trace), len(trace))
    lat_reference = drive_service(scalar_service_fn(reference, trace), len(trace))
    assert lat_fast == lat_reference
    if lane is not None:
        assert max(lat_fast) > 0.0
    assert_snapshots_identical(fast.metrics_snapshot(), reference.metrics_snapshot())


def assert_nemo_lanes_reached(engine):
    """Flash hits, false positives, index-pool reads and hotness
    writeback (which a closure binding ``hotness._bits`` loses)."""
    flash_hits = (
        engine.device.nand.read_count
        - engine.pbfg_pool_reads
        - engine.false_positive_reads
        - engine.writeback_reads
    )
    assert flash_hits > 0
    assert engine.false_positive_reads > 0
    assert engine.pbfg_lookups_from_pool > 0
    assert engine.writeback_objects > 0


@pytest.mark.parametrize("lane", [None, "analytic", "event"])
@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_service_fn_matches_the_scalar_closure(name, lane):
    """Every engine's closed-loop closure agrees with the scalar one, and
    Nemo's and FW/KG's ``_lookup_at`` reach the lanes they inline."""
    fast, reference = make_engine(name), make_engine(name)
    assert_service_agrees(fast, reference, lane)
    if name == "nemo":
        assert_nemo_lanes_reached(fast)
    elif name in ("fw", "kg"):
        bpz = fast.geometry.blocks_per_zone
        nand = fast.device.nand
        assert any(nand.block_erases[z * bpz] for z in fast.hlog.region.zone_ids)


def test_service_fn_unprogrammed_holder_page_raises_read_error():
    engine = make_engine("nemo")
    engine.install_latency_model(make_latency_model("analytic", num_channels=4))
    drive_bulk(engine, [run for run in make_long_runs() if run[0] == "set"])
    key = next(
        k
        for k in engine._flash_index
        if engine.queue.find(engine._placement_of(k), k) is None
    )
    holder = engine._pool_map[engine._flash_index[key]]
    engine.device.nand._state[holder.page_of(engine._placement_of(key))] = PAGE_ERASED
    service = engine.service_fn(Trace(ops=[OP_GET], keys=[key], sizes=[100]))
    with pytest.raises(ReadError, match="not programmed"):
        service(0, 0.0)
