"""Whole-trace columnar replay kernels (DESIGN.md §5).

The batched lane (``harness/runner.py``) still walks every request in a
Python loop inside the engines' bulk methods; that caps replay at ~2M
req/s.  This module processes an entire trace as numpy column passes
against an engine, split into the two phases the columnar contract
requires:

- **Decision pass** (vectorised, loop-free): classify every GET as
  hit/miss from per-key previous-occurrence links, predict the exact
  buffer-flush schedule from the insert-event size sequence, classify
  every hit as buffer-hit vs flash-hit by whether a flush falls between
  the hit and the insert event that placed the object, and predict the
  device page each insert lands on (pages allocate sequentially until
  the device wraps).  All engine-independent columns are cached on the
  trace (``Trace._kernel_cache``) — repeated replays of the same trace
  pay the sort exactly once, the "hash once up front" contract applied
  to the whole decision pass.
- **Mutation loop** (compact, per event): only the surviving state
  changes — misses, SETs, and DELETEs, ~20 % of a GET-heavy trace — are
  applied to the real engine via its bulk insert path, in request order.
  Lookup-side counters settle per chunk in O(1) from padded prefix sums.

A kernel is a *chunk executor* for the runner's one replay loop
(``harness/runner.py`` owns boundaries, sampling and window marks): the
registered function runs the decision pass once and returns
``advance(stop)``, which applies the mutation loop up to ``stop``,
settles the deferred lookup counters and returns the position reached.
The engine remains the source of truth: every sampled metric comes from
``engine.metrics_snapshot()`` after an advance, so the lane is
byte-identical to the batched lane (the parity goldens compare all three
lanes).

Correctness boundaries (the kernels *refuse* rather than approximate):

- Only a virgin engine on a latency-free device, with no oversized
  objects, is eligible (:func:`kernel_ineligible_reason`
  consults the per-engine :data:`KERNEL_REGISTRY`); anything else
  replays on the batched lane.
- The Log decision pass assumes no engine-driven eviction: evicting a
  key would turn its next GET from a (classified) hit into a miss.  The
  flush schedule is exact, so evictions can only happen at predicted
  flush points; once the flush ordinal reaches the page count (the
  first flush that *can* recycle a zone), runs fall back to the exact
  ``insert_many`` path and the walker checks the engine's eviction
  counter after each flush.  On the first live-object eviction it
  *bails* — settles counters for the exactly-processed prefix and
  returns a position short of ``stop``, and the runner finishes the
  trace on the batched executor.  Wrapping workloads therefore replay
  as a columnar prefix + batched suffix, still byte-identical.
- The Nemo kernel (:func:`replay_nemo_columnar`) runs its own compact
  mutation loop over insert events with a vectorised settle of every
  lookup-side counter between state changes; it repairs the decision
  columns in place when delayed-flush evictions invalidate them, and
  bails to the batched lane at the first SG-pool eviction (a blocked
  insert with no free SG zones left).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, cast

import numpy as np

from repro.baselines.base import CacheEngine
from repro.baselines.log_structured import OBJECT_HEADER_BYTES, LogStructuredCache
from repro.core.config import PLACEMENT_SEED
from repro.core.flusher import FlushDecision
from repro.core.nemo import NemoCache
from repro.errors import EngineStateError, ReadError
from repro.flash.zone import ZoneState
from repro.harness.percentile import LatencyRecorder
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace


#: An opened kernel's chunk executor: ``advance(stop)`` replays the
#: requests from its current position up to ``stop`` and returns the
#: position it reached.  Anything short of ``stop`` is a bail: engine
#: state is exact through the returned position, the decision columns
#: beyond it are stale, and the caller finishes the trace another way
#: (a bail that lands exactly on ``stop`` shows on the next advance).
Advance = Callable[[int], int]


_NOT_VIRGIN = (
    "the engine is not virgin (the decision pass must observe every state change)"
)


def _shared_ineligible_reason(engine: CacheEngine, trace: Trace) -> str | None:
    """The refusals every whole-trace kernel shares.

    A decision pass assumes it observes every state change, so the
    engine must start empty; latency models need per-request timing
    and stay on the batched lane.
    """
    if engine.latency_model() is not None:
        return "latency models need per-request timing"
    counters = engine.counters
    if (
        counters.lookups
        or counters.inserts
        or counters.deletes
        or engine.object_count()
        or engine.stats.host_write_bytes
        or engine.stats.logical_write_bytes
    ):
        return _NOT_VIRGIN
    if len(trace) == 0:
        return "empty trace"
    return None


def log_kernel_ineligible_reason(engine: object, trace: Trace) -> str | None:
    """Why the whole-trace Log kernel may *not* replay this combination.

    Returns None when the kernel is eligible.
    """
    if type(engine) is not LogStructuredCache:
        return f"the Log kernel only replays LogStructuredCache, not {type(engine).__name__}"
    reason = _shared_ineligible_reason(engine, trace)
    if reason is not None:
        return reason
    if engine._buffer_bytes:
        return _NOT_VIRGIN
    max_stored = int(trace.sizes.max()) + OBJECT_HEADER_BYTES
    if max_stored > engine.geometry.page_size:
        # An oversized object must raise at its exact request position;
        # only the per-request lanes can do that.
        return "an oversized object must raise at its exact request position"
    return None


def _flush_schedule(ins_stored: np.ndarray, page_size: int) -> np.ndarray:
    """Predict which insert events flush the page buffer.

    The Log engine flushes when ``buffer_bytes + stored > page_size``
    and *nothing else* mutates ``buffer_bytes`` (deletes and evictions
    leave it alone), so the schedule is a pure recurrence over the
    insert-event stored sizes.  Returns the ascending indices (into the
    insert-event sequence) of the events whose insert flushes.
    """
    limit = len(ins_stored)
    if limit == 0:
        return np.empty(0, dtype=np.int64)
    cs = np.cumsum(ins_stored).tolist()
    triggers: list[int] = []
    base = 0
    j = 0
    # Mutation loop: data-dependent reset-cumsum (one iteration per
    # *flush*, not per request; bisect jumps whole pages at C speed).
    while True:
        j = bisect_right(cs, base + page_size, j)
        if j >= limit:
            break
        triggers.append(j)
        base = cs[j - 1] if j else 0
    return np.asarray(triggers, dtype=np.int64)


@dataclass(frozen=True)
class _TraceLinks:
    """Engine-independent decision columns, cached per trace.

    Pure functions of ``(ops, keys, sizes)`` — every replay of the same
    trace object (any geometry, any boundary layout) reuses them.
    ``cum_*`` arrays are length ``n + 1`` prefix sums padded with a
    leading zero, so the per-chunk settle is a pair of O(1) lookups.
    ``sort_idx`` lists every request position stably sorted by key, so
    one key's occurrences form a contiguous ascending run.
    """

    sort_idx: np.ndarray
    hit: np.ndarray
    is_ins_event: np.ndarray
    ins_pos: np.ndarray
    last_ev: np.ndarray
    ins_pos_list: list[int]
    ins_keys: list[int]
    ins_sizes: list[int]
    del_pos_list: list[int]
    del_keys: list[int]
    cum_get: np.ndarray
    cum_hit: np.ndarray
    cum_read_bytes: np.ndarray
    cum_ins: np.ndarray
    cum_ins_bytes: np.ndarray


def _trace_links(trace: Trace) -> _TraceLinks:
    cached = trace._kernel_cache.get("log-links")
    if cached is not None:
        return cast(_TraceLinks, cached)
    ops = trace.ops
    keys = trace.keys
    sizes = trace.sizes
    n = len(trace)

    is_get = ops == OP_GET
    is_del = ops == OP_DELETE

    # Per-key previous-occurrence links: stable sort groups each key's
    # requests in position order.
    sort_idx = np.argsort(keys, kind="stable")
    sorted_keys = keys[sort_idx]
    same = np.zeros(n, dtype=bool)
    same[1:] = sorted_keys[1:] == sorted_keys[:-1]
    prev_pos = np.full(n, -1, dtype=np.int64)
    tail = np.flatnonzero(same)
    prev_pos[sort_idx[tail]] = sort_idx[tail - 1]

    # Key-resident-before-request indicator: the key has a previous
    # occurrence and that request was not a DELETE — any GET (hit or
    # read-through miss) or SET leaves the key resident, a DELETE
    # leaves it absent.  Evictions — the one event this rule cannot
    # see — are handled by the bail-out below.
    present = np.zeros(n, dtype=bool)
    linked = prev_pos >= 0
    present[linked] = ops[prev_pos[linked]] != OP_DELETE
    hit = is_get & present

    # Insert events: explicit SETs plus read-through misses.
    is_ins_event = (ops == OP_SET) | (is_get & ~hit)
    ins_pos = np.flatnonzero(is_ins_event)

    # Last insert event per key at each position (forward-fill within
    # key groups via the segment-offset cummax trick): the event that
    # placed the object a hit is served from.
    rank_sorted = np.cumsum(~same) - 1
    seg = rank_sorted * np.int64(n + 1)
    marker = np.where(is_ins_event[sort_idx], sort_idx + 1, 0) + seg
    last_ev = np.empty(n, dtype=np.int64)
    last_ev[sort_idx] = np.maximum.accumulate(marker) - seg - 1

    cum_get = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_get, out=cum_get[1:])
    cum_hit = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(hit, out=cum_hit[1:])
    # A hit reads the *stored* object — the size of the key's placing
    # insert event, not the GET's own size column (a trace may
    # re-request a key with a different size).
    read_sizes = np.zeros(n, dtype=np.int64)
    hit_pos = np.flatnonzero(hit)
    read_sizes[hit_pos] = sizes[last_ev[hit_pos]]
    cum_read_bytes = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(read_sizes, out=cum_read_bytes[1:])
    cum_ins = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_ins_event, out=cum_ins[1:])
    cum_ins_bytes = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(is_ins_event, sizes, 0), out=cum_ins_bytes[1:])

    links = _TraceLinks(
        sort_idx=sort_idx,
        hit=hit,
        is_ins_event=is_ins_event,
        ins_pos=ins_pos,
        last_ev=last_ev,
        ins_pos_list=ins_pos.tolist(),
        ins_keys=keys[ins_pos].tolist(),
        ins_sizes=sizes[ins_pos].tolist(),
        del_pos_list=np.flatnonzero(is_del).tolist(),
        del_keys=keys[is_del].tolist(),
        cum_get=cum_get,
        cum_hit=cum_hit,
        cum_read_bytes=cum_read_bytes,
        cum_ins=cum_ins,
        cum_ins_bytes=cum_ins_bytes,
    )
    trace._kernel_cache["log-links"] = links
    return links


@dataclass(frozen=True)
class _FlushPlan:
    """Geometry-dependent flush schedule and derived columns.

    Cached per ``(page_size, OBJECT_HEADER_BYTES)``.  ``pages`` maps
    each insert event to the device page its object will occupy — on a
    virgin device zones allocate in order and pages sequentially, so the
    page id *is* the global flush ordinal covering the event (``-1``
    when no flush ever covers it).  Only valid below the device's page
    count; the walker stops using the fast path there.
    """

    flush_list: list[int]
    pages: list[int]
    cum_flash: np.ndarray


def _flush_plan(
    trace: Trace, links: _TraceLinks, page_size: int, header: int
) -> _FlushPlan:
    cache_key = ("log-plan", page_size, header)
    cached = trace._kernel_cache.get(cache_key)
    if cached is not None:
        return cast(_FlushPlan, cached)
    sizes = trace.sizes
    n = len(trace)
    ins_pos = links.ins_pos
    last_ev = links.last_ev

    flush_evt = _flush_schedule(sizes[ins_pos] + header, page_size)
    n_flush = len(flush_evt)
    #: Global request positions whose insert triggers a buffer flush.
    flush_positions = ins_pos[flush_evt]

    # Predicted placement page per insert event: the ordinal of the
    # first flush at-or-after the event (side="right": a flush *at* the
    # event writes the buffer out before the event's own insert, so the
    # event belongs to the next page).
    cov = np.searchsorted(flush_evt, np.arange(len(ins_pos)), side="right")
    pages = np.where(cov < n_flush, cov, -1)

    # Flash-hit indicator per request (hit iff a flush separates the
    # placing insert from the GET), folded into a padded prefix sum so
    # the per-chunk flash-read settle is O(1).
    hit_pos = np.flatnonzero(links.hit)
    placed_hit = last_ev[hit_pos]
    flash = np.searchsorted(
        flush_positions, hit_pos, side="left"
    ) > np.searchsorted(flush_positions, placed_hit, side="right")
    indicator = np.zeros(n, dtype=np.int64)
    indicator[hit_pos[flash]] = 1
    cum_flash = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indicator, out=cum_flash[1:])

    plan = _FlushPlan(
        flush_list=flush_evt.tolist(),
        pages=pages.tolist(),
        cum_flash=cum_flash,
    )
    trace._kernel_cache[cache_key] = plan
    return plan


def sim_clock(trace: Trace, step_us: float) -> np.ndarray:
    """Simulated clock after each request.

    ``np.add.accumulate`` is a sequential left fold, so boundary values
    match the batched lane's per-request additions bit-for-bit (asserted
    by tests/harness/test_columnar.py).
    """
    cache_key = ("log-clock", step_us)
    cached = trace._kernel_cache.get(cache_key)
    if cached is not None:
        return cast(np.ndarray, cached)
    clock = np.add.accumulate(np.full(len(trace), step_us))
    trace._kernel_cache[cache_key] = clock
    return clock


def replay_log_columnar(
    engine: LogStructuredCache,
    trace: Trace,
    *,
    step_us: float,
    latency: LatencyRecorder | None,
    sampled_metrics: tuple[str, ...],
) -> Advance:
    """Open a replay of ``trace`` on the whole-trace Log kernel.

    Caller guarantees :func:`log_kernel_ineligible_reason` returned
    None.  Runs the decision pass and returns the chunk executor.
    ``latency`` is the recorder per-GET latencies go to (None: not
    recorded); ``sampled_metrics`` is part of the common kernel
    signature and unused here — this kernel leaves nothing unsettled
    at the end of an advance.
    """
    n = len(trace)
    header = OBJECT_HEADER_BYTES
    page_size = engine.geometry.page_size

    # ------------------------------------------------------------------
    # Decision pass (vectorised, loop-free; cached across replays)
    # ------------------------------------------------------------------
    links = _trace_links(trace)
    plan = _flush_plan(trace, links, page_size, header)
    clock = sim_clock(trace, step_us)

    # ------------------------------------------------------------------
    # Mutation-loop inputs (compact event lists)
    # ------------------------------------------------------------------
    ins_pos = links.ins_pos
    ins_pos_list = links.ins_pos_list
    ins_keys = links.ins_keys
    ins_sizes = links.ins_sizes
    n_ins = len(ins_pos_list)
    del_pos_list = links.del_pos_list
    del_keys = links.del_keys
    n_del = len(del_pos_list)
    cum_get = links.cum_get
    cum_hit = links.cum_hit
    cum_read_bytes = links.cum_read_bytes
    cum_flash = plan.cum_flash
    flush_list = plan.flush_list
    n_flush = len(flush_list)
    pages = plan.pages

    counters = engine.counters
    stats = engine.stats
    device = engine.device
    insert_column = engine.insert_column
    insert_many = engine.insert_many
    delete = engine.delete
    # Evictions need a flush with no empty zone left, and the k-th flush
    # ever (0-indexed) only allocates a new zone at multiples of
    # pages_per_zone — so on a virgin device the first flush that *can*
    # recycle a zone (and break the sequential-page prediction) is flush
    # number ``num_pages``.  Insert runs need no cut (and no eviction
    # check) before it; on traces that never wrap the device, the walker
    # degenerates to one run per chunk.
    first_evicting_flush = engine.geometry.num_pages

    def settle(a: int, b: int) -> None:
        """Flush the deferred lookup-side counters for requests [a, b).

        Exactly mirrors ``LogStructuredCache.lookup_many``'s deferred
        accounting: lookups/hits, logical read bytes, and — for hits
        served from flash rather than the page buffer — one device read
        per hit (``ZNSDevice.record_reads``).  O(1) via the cached
        padded prefix sums.
        """
        if b <= a:
            return
        n_get = int(cum_get[b] - cum_get[a])
        n_hit = int(cum_hit[b] - cum_hit[a])
        if latency is not None and n_get:
            # Latency-free device: every GET records 0.0, in order.
            latency.record_many([0.0] * n_get)
        counters.lookups += n_get
        counters.hits += n_hit
        if not n_hit:
            return
        stats.logical_read_bytes += int(cum_read_bytes[b] - cum_read_bytes[a])
        device.record_reads(int(cum_flash[b] - cum_flash[a]))

    # ------------------------------------------------------------------
    # Mutation loop: apply events in request order, one chunk per advance
    # ------------------------------------------------------------------
    ii = 0  # next insert event
    di = 0  # next delete event
    fi = 0  # next flush (monotone pointer into flush_list)
    pos = 0  # requests below it are applied and settled
    bailed = False

    def advance(stop: int) -> int:
        nonlocal ii, di, fi, pos, bailed
        if bailed:
            # The evicting request can be the last of its chunk: that
            # advance reached its ``stop``, this one reports the bail.
            return pos
        start = pos
        now_chunk = float(clock[start - 1]) if start else 0.0
        # Event walker: one iteration per insert *run* (cut at
        # deletes and — once the device can wrap — at each flush),
        # not per request.
        while True:
            next_ins = ins_pos_list[ii] if ii < n_ins else n
            next_del = del_pos_list[di] if di < n_del else n
            if next_ins >= stop and next_del >= stop:
                break
            if next_del < next_ins:
                delete(del_keys[di])
                di += 1
                continue
            # Maximal insert run: up to the chunk end or the next
            # delete, cut right after the first predicted flush that
            # could evict, so evictions surface at the exact request
            # they happen.  Flushes that still have an empty zone to
            # write into stay inside the run as ``cuts``.
            run_stop = min(stop, next_del)
            jj = int(np.searchsorted(ins_pos, run_stop, side="left"))
            check_evictions = False
            if first_evicting_flush < n_flush:
                nf = fi if fi >= first_evicting_flush else first_evicting_flush
                if nf < n_flush and flush_list[nf] + 1 <= jj:
                    jj = flush_list[nf] + 1
                    check_evictions = True
            f_lo = fi
            # Monotone pointer advance: one step per flush across the
            # whole trace, not per request.
            while fi < n_flush and flush_list[fi] < jj:
                fi += 1
            if check_evictions or f_lo >= first_evicting_flush:
                # The device may recycle zones from here on: page
                # predictions are stale, so replay the run through
                # the exact per-event bulk path.
                insert_many(
                    ins_keys[ii:jj], ins_sizes[ii:jj], now_chunk, 0.0
                )
            else:
                # Placements beyond the run's last flush stay
                # buffered: exactly the last trigger event and
                # everything after it (a trigger's own insert lands
                # in the fresh buffer), so the cap is a slice +
                # fill, not a scan.
                if fi > f_lo:
                    flushed_to = flush_list[fi - 1]
                    run_pages = pages[ii:flushed_to]
                    run_pages += [-1] * (jj - flushed_to)
                else:
                    run_pages = [-1] * (jj - ii)
                insert_column(
                    ins_keys[ii:jj],
                    ins_sizes[ii:jj],
                    [t - ii for t in flush_list[f_lo:fi]],
                    run_pages,
                    now_chunk,
                )
            ii = jj
            if check_evictions and counters.evicted_objects:
                # First live-object eviction: the hit classification
                # beyond this request is stale.  Stop right after it,
                # settle the exact prefix, and leave the rest to the
                # runner's batched executor.
                bailed = True
                stop = ins_pos_list[jj - 1] + 1
                break
        settle(start, stop)
        pos = stop
        return stop

    return advance


# ======================================================================
# Nemo whole-trace kernel
# ======================================================================

@dataclass(frozen=True)
class _NemoChain:
    """GET and classified-hit positions, cached per trace
    (engine-independent)."""

    get_pos: np.ndarray
    hit_pos: np.ndarray


def _nemo_chain(trace: Trace, links: _TraceLinks) -> _NemoChain:
    cached = trace._kernel_cache.get("nemo-chain")
    if cached is not None:
        return cast(_NemoChain, cached)
    chain = _NemoChain(
        get_pos=np.flatnonzero(trace.ops == OP_GET),
        hit_pos=np.flatnonzero(links.hit),
    )
    trace._kernel_cache["nemo-chain"] = chain
    return chain


def _nemo_ins_offsets(
    trace: Trace, links: _TraceLinks, seed: int, sets_per_sg: int
) -> list[int]:
    """Intra-SG set offset per insert event (cached per placement)."""
    cache_key = ("nemo-ins-offs", seed, sets_per_sg)
    cached = trace._kernel_cache.get(cache_key)
    if cached is not None:
        return cast("list[int]", cached)
    col = trace.columns(seed, sets_per_sg)
    offs = cast("list[int]", col[links.ins_pos].tolist())
    trace._kernel_cache[cache_key] = offs
    return offs


def nemo_kernel_ineligible_reason(engine: object, trace: Trace) -> str | None:
    """Why the whole-trace Nemo kernel may *not* replay this combination.

    Returns None when the kernel is eligible.
    """
    if type(engine) is not NemoCache:
        return f"the Nemo kernel only replays NemoCache, not {type(engine).__name__}"
    reason = _shared_ineligible_reason(engine, trace)
    if reason is not None:
        return reason
    if engine.pool or engine.flush_policy.blocked_inserts:
        return _NOT_VIRGIN
    if int(trace.sizes.max()) > engine.set_size:
        return "an oversized object must raise at its exact request position"
    return None


def replay_nemo_columnar(
    engine: NemoCache,
    trace: Trace,
    *,
    step_us: float,
    latency: LatencyRecorder | None,
    sampled_metrics: tuple[str, ...],
) -> Advance:
    """Open a replay of ``trace`` on the whole-trace Nemo kernel.

    Caller guarantees :func:`nemo_kernel_ineligible_reason` returned
    None.  Runs the decision pass and returns the chunk executor;
    ``latency`` is the recorder per-GET latencies go to (None: not
    recorded) and ``sampled_metrics`` names what the caller reads from
    the engine between advances (it decides ``defer_reads`` below).

    The mutation loop visits only *state changes* — insert events
    (SETs + read-through misses), deletes, flush decisions — and keeps a
    placement column ``sg_arr`` recording which SG holds each event's
    object.  Everything lookup-side settles vectorially per segment
    from the cached prefix sums: a GET is a memory hit iff its placing
    event's SG has not been flushed, a flash hit otherwise.  The
    consulting GETs settle through the engine's two bulk halves: the
    index side (``_consult_index_many``: PBFG page touches, index-cache
    FIFO, index-pool reads) and the candidate side (one linear pass of
    false-positive draws over the engine's RNG stream, then array
    accounting of the page reads and hotness bits).

    Delayed-flush evictions are the one event the decision columns
    cannot predict.  When the walk evicts a live key it *repairs* the
    columns for that key's future requests in place: if a stale flash
    copy survives, its next GETs stay hits served from that copy (the
    placement column is re-pointed at the flash holder and the stored
    size re-read); if no copy survives, the next GET is really a
    read-through miss — the kernel schedules a scalar *injection* at
    that exact position and excludes it from the vector settle.  SG-pool
    evictions (a blocked insert with no free SG zones) bail instead
    (``advance`` returns the position of that request), before any
    policy state mutates.
    """
    n = len(trace)
    ops = trace.ops
    keys_arr = trace.keys
    sizes_arr = trace.sizes

    # ------------------------------------------------------------------
    # Decision pass (vectorised; cached across replays)
    # ------------------------------------------------------------------
    links = _trace_links(trace)
    chain = _nemo_chain(trace, links)
    clock = sim_clock(trace, step_us)
    col = trace.columns(PLACEMENT_SEED, engine.sets_per_sg)

    get_pos = chain.get_pos
    hit_pos = chain.hit_pos
    occ_sorted = links.sort_idx
    # keys_arr[occ_sorted], gathered only once an eviction repair first
    # needs a key's occurrence run.
    sorted_keys: np.ndarray | None = None
    hit_b = links.hit
    last_ev = links.last_ev
    cum_get = links.cum_get
    cum_hit = links.cum_hit
    cum_ins = links.cum_ins
    cum_ins_bytes = links.cum_ins_bytes

    ins_pos_list = links.ins_pos_list
    ins_keys = links.ins_keys
    ins_sizes = links.ins_sizes
    ins_offs = _nemo_ins_offsets(trace, links, PLACEMENT_SEED, engine.sets_per_sg)
    n_ins = len(ins_pos_list)
    del_pos_list = links.del_pos_list
    del_keys = links.del_keys
    n_del = len(del_pos_list)

    # Stored size served by each classified hit (writable: eviction
    # repairs patch it to the surviving flash copy's stored size).
    rs = np.zeros(n, dtype=np.int64)
    rs[hit_pos] = sizes_arr[last_ev[hit_pos]]
    # Placement column: sg_id holding the object after each insert
    # event, written by the walk as placements happen.  A hit is served
    # from memory iff its placing event's SG has not been flushed.
    sg_arr = np.full(n, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Engine handles (hot-path locals)
    # ------------------------------------------------------------------
    counters = engine.counters
    stats = engine.stats
    device = engine.device
    queue = engine.queue
    flush_policy = engine.flush_policy
    hotness = engine.hotness
    pool_dq = engine.pool
    flash_index = engine._flash_index
    pool_map = engine._pool_map
    free_zones = engine.sg_region.free
    set_size = engine.set_size
    window_sgs = engine._window_sgs
    OP_GET_ = OP_GET

    sgs = list(queue._queue)
    F = 0  # flushed SGs == len(engine.pool); pool never shrinks pre-bail
    seg_start = 0  # settle watermark: requests below it are accounted
    rpos = 0  # read-settle watermark (lags seg_start when deferring)
    sched: list[int] = []  # pending injection positions (min-heap)
    pending_inj: dict[int, tuple[int, int]] = {}  # pos -> (key, carrier)

    # Read-side accounting (flash-consult RNG stream, page-read
    # counters, hotness bits) is engine state nothing reads between
    # state-change events, so it can settle per *epoch* (flush / delete
    # / eviction / injection boundaries — a handful per trace) instead
    # of per advance.  Only legal when no sampled series would observe
    # the deferred counters mid-epoch.
    defer_reads = NemoCache.CONSULT_METRICS.isdisjoint(sampled_metrics)

    # ------------------------------------------------------------------
    # Column repair after a delayed-flush eviction
    # ------------------------------------------------------------------
    def occurrences(key: int) -> np.ndarray:
        """Every request position of ``key``, ascending."""
        nonlocal sorted_keys
        if sorted_keys is None:
            sorted_keys = keys_arr[occ_sorted]
        lo = int(np.searchsorted(sorted_keys, key, side="left"))
        hi = int(np.searchsorted(sorted_keys, key, side="right"))
        return occ_sorted[lo:hi]

    def dirty(key: int, t: int) -> None:
        """Repair the decision columns after ``key`` left memory at ``t``."""
        # Settle everything before the eviction first: requests below
        # ``t`` saw the key in memory, and the repairs below re-point
        # the shared carrier entry, which would misclassify them.
        settle(t)
        read_settle(t)
        occ = occurrences(key)
        i = int(np.searchsorted(occ, t, side="right")) - 1
        carrier = int(last_ev[occ[i]])
        holder_id = flash_index.get(key)
        if holder_id is not None:
            # A stale flash copy survives: future GETs stay hits, served
            # from the holder SG at the copy's stored size.
            sg_arr[carrier] = holder_id
            stored = pool_map[holder_id].sets[int(col[occ[i]])][key]
            j = i + 1
            # Per-occurrence repair walk: bounded by this key's future
            # GET-hit run, not the trace.
            while j < len(occ):
                p = int(occ[j])
                if ops[p] != OP_GET_ or not hit_b[p]:
                    break
                rs[p] = stored
                j += 1
            return
        # No copy anywhere: the key's next classified hit is really a
        # read-through miss.  Handle that one request scalar, in place.
        if i + 1 < len(occ):
            q = int(occ[i + 1])
            if ops[q] == OP_GET_ and hit_b[q]:
                heappush(sched, q)
                pending_inj[q] = (key, carrier)

    # ------------------------------------------------------------------
    # Vectorised per-segment settle of all lookup-side accounting
    # ------------------------------------------------------------------
    def settle(b: int) -> None:
        """Account requests [seg_start, b) exactly as ``lookup_many``.

        Totals (lookups/hits/inserts/bytes) come from the cached prefix
        sums; hit read-bytes and the memory-vs-flash split from the
        placement column.  The flash-consult side of the GETs (misses
        + flash hits while the pool is non-empty) is ``read_settle``'s.
        """
        nonlocal seg_start
        a = seg_start
        if b <= a:
            return
        seg_start = b
        n_get = int(cum_get[b] - cum_get[a])
        n_hit = int(cum_hit[b] - cum_hit[a])
        counters.lookups += n_get
        counters.hits += n_hit
        ins_bytes = int(cum_ins_bytes[b] - cum_ins_bytes[a])
        counters.inserts += int(cum_ins[b] - cum_ins[a])
        counters.insert_bytes += ins_bytes
        stats.logical_write_bytes += ins_bytes
        if not n_get:
            return
        if latency is not None:
            # Latency-free device: every GET records 0.0, in order.
            latency.record_many([0.0] * n_get)
        if n_hit:
            lo = int(np.searchsorted(hit_pos, a, side="left"))
            hp = hit_pos[lo : lo + n_hit]
            stats.logical_read_bytes += int(rs[hp].sum())
        if not defer_reads:
            read_settle(b)

    def read_settle(b: int) -> None:
        """Settle the flash-consult side of requests [rpos, b).

        Every ``F`` change (a flush) and every event that observes or
        reorders this state (delete, eviction repair, injection, bail)
        forces a read-settle first, so each deferred span runs under one
        constant pool depth and pre-repair placement column.
        """
        nonlocal rpos
        a = rpos
        if b <= a:
            return
        rpos = b
        if not F:
            return
        n_get = int(cum_get[b] - cum_get[a])
        if not n_get:
            return
        n_hit = int(cum_hit[b] - cum_hit[a])
        hp = sg = mem = None
        # Consulting GETs: every miss, plus flash hits.  n_scanned per
        # consult matches _lookup_at's candidate scan: F for a miss,
        # F-1-holder for a flash hit, -1 marks memory hits (no consult).
        glo = int(np.searchsorted(get_pos, a, side="left"))
        gp = get_pos[glo : glo + n_get]
        ns = np.full(n_get, F, dtype=np.int64)
        if n_hit:
            lo = int(np.searchsorted(hit_pos, a, side="left"))
            hp = hit_pos[lo : lo + n_hit]
            sg = sg_arr[last_ev[hp]]
            mem = sg >= F
            ns[np.searchsorted(gp, hp)] = np.where(mem, -1, F - 1 - sg)
        consult = gp[ns >= 0]
        # Index side: one PBFG page per live group and consult.  Within
        # an epoch the index-cache FIFO, the FP RNG stream and the
        # hotness bits do not read each other, so each settles in bulk.
        engine._consult_index_many(col[consult])
        # Candidate side: one FP draw per consult that scans an SG, one
        # page read per flash hit and per FP.
        n_fp = engine._draw_false_positives(ns[ns > 0])
        n_flash_hits = int((~mem).sum()) if n_hit else 0
        pages_read = n_flash_hits + n_fp
        if pages_read:
            # Candidate + FP page reads, batched like ZNSDevice.read_many.
            # Every such page lives in a pool SG, so "programmed" is
            # checked once per span: the pool's zones are all FULL.
            zones = device.zones
            if any(zones[fsg.zone_id].state is not ZoneState.FULL for fsg in pool_dq):
                raise ReadError("an SG-pool zone is not fully programmed")
            device.record_reads(pages_read)
        if n_flash_hits:
            assert hp is not None and sg is not None and mem is not None
            fh = hp[~mem]
            hotness.record_access_array(
                keys_arr[fh], col[fh], sg[~mem] < window_sgs
            )

    # ------------------------------------------------------------------
    # Blocked-insert slow path (eviction, flush, or bail)
    # ------------------------------------------------------------------
    def blocked_insert(key: int, size: int, off: int, t: int) -> int | None:
        """Mirror ``_insert_blocked``; returns the placement sg_id.

        Returns None to bail: an SG-pool eviction is imminent (no free
        SG zones), which would invalidate the whole classification —
        the batched executor redoes this request from untouched policy
        state, so nothing may mutate before the bail.
        """
        nonlocal F, sgs
        if not free_zones:
            return None
        decision = flush_policy.decide()
        if decision is FlushDecision.MAKE_ROOM:
            front = sgs[0]
            evicted = front.evict_from_set(off, size)
            for k2, s2 in evicted:
                engine.early_evicted_objects += 1
                engine.early_evicted_bytes += s2
                counters.evicted_objects += 1
                counters.evicted_bytes += s2
                dirty(k2, t)
            if not front.try_insert(off, key, size):
                raise EngineStateError("insert failed after making room")
            return front.sg_id
        # FLUSH: settle through this request first — its lookup side
        # (a read-through miss consulted the pool *before* inserting)
        # must account against the pre-flush pool.
        settle(t + 1)
        read_settle(t + 1)
        engine._flush_front(now_us=float(clock[t - 1]) if t else 0.0)
        sgs = list(queue._queue)
        F = len(pool_dq)
        for sg in sgs:
            tset = sg.sets[off]
            if tset.used_bytes + size <= set_size:
                tset.objects[key] = size
                tset.used_bytes += size
                sg.new_bytes_in += size
                return sg.sg_id
        raise EngineStateError("insert failed after flushing the front SG")

    # ------------------------------------------------------------------
    # Mutation loop: insert events, deletes, injections, one chunk per
    # advance
    # ------------------------------------------------------------------
    ii = 0  # next insert event
    di = 0  # next delete event
    next_ins = ins_pos_list[0] if n_ins else n
    next_del = del_pos_list[0] if n_del else n

    def advance(stop: int) -> int:
        nonlocal ii, di, next_ins, next_del, seg_start, rpos
        # Event walker: one iteration per state change (insert
        # event, delete, injection), not per request.
        while True:
            t = next_ins
            kind = 0
            if next_del < t:
                t = next_del
                kind = 1
            if sched and sched[0] < t:
                t = sched[0]
                kind = 2
            if t >= stop:
                break
            if kind == 0:
                # Insert event: inline SetGroupQueue.try_insert,
                # recording the placement in sg_arr.  The queue's
                # membership pass checks every SG before placing, so
                # the fused walk collects the first SG with room on
                # the same pass it proves the key absent.
                key = ins_keys[ii]
                size = ins_sizes[ii]
                off = ins_offs[ii]
                ii += 1
                next_ins = ins_pos_list[ii] if ii < n_ins else n
                fit = None
                for sg in sgs:
                    tset = sg.sets[off]
                    obj = tset.objects
                    if key in obj:
                        # In-place update (keeps dict position).
                        sg_arr[t] = sg.sg_id
                        old = obj[key]
                        obj[key] = size
                        ub = tset.used_bytes + size - old
                        tset.used_bytes = ub
                        sg.new_bytes_in += size
                        if ub > set_size:
                            # Oversized replacement: shed FIFO
                            # (silent, as SetGroup.try_insert).
                            while tset.used_bytes > set_size:
                                k2 = next(iter(obj))
                                tset.used_bytes -= obj.pop(k2)
                                dirty(k2, t)
                        break
                    if fit is None and tset.used_bytes + size <= set_size:
                        fit = (sg, tset, obj)
                else:
                    if fit is not None:
                        sg, tset, obj = fit
                        obj[key] = size
                        tset.used_bytes += size
                        sg.new_bytes_in += size
                        sg_arr[t] = sg.sg_id
                    else:
                        placed = blocked_insert(key, size, off, t)
                        if placed is None:
                            settle(t)
                            read_settle(t)
                            return t
                        sg_arr[t] = placed
            elif kind == 1:
                # Deletes discard hotness bits and pool copies, so
                # the deferred read side must land first.
                settle(t)
                read_settle(t)
                engine.delete(del_keys[di])
                di += 1
                next_del = del_pos_list[di] if di < n_del else n
            else:
                # Injection: this position was classified a hit but
                # the key was evicted with no surviving flash copy —
                # run the one request scalar (``_lookup_at``, manual
                # read-through accounting) and exclude it from the
                # vector settle.
                heappop(sched)
                key, carrier = pending_inj.pop(t)
                off = int(col[t])
                size = int(sizes_arr[t])
                room = False
                for sg in sgs:
                    if sg.sets[off].used_bytes + size <= set_size:
                        room = True
                        break
                if not room and not free_zones:
                    # The read-through insert would force an SG-pool
                    # eviction: bail before any state mutates.
                    settle(t)
                    read_settle(t)
                    return t
                settle(t)
                read_settle(t)
                seg_start = t + 1  # this request settles scalar
                rpos = t + 1  # the real lookup consults for itself
                hit, lat = engine._lookup_at(
                    key, size, off, float(clock[t - 1]) if t else 0.0
                )
                if hit:
                    raise EngineStateError(
                        "injected lookup unexpectedly hit"
                    )
                if latency is not None:
                    latency.record(lat)
                counters.inserts += 1
                counters.insert_bytes += size
                stats.logical_write_bytes += size
                placed = None
                # Membership pass is vacuous (the key just missed);
                # placement pass as in the walk above.
                for sg in sgs:
                    tset = sg.sets[off]
                    if tset.used_bytes + size <= set_size:
                        tset.objects[key] = size
                        tset.used_bytes += size
                        sg.new_bytes_in += size
                        placed = sg.sg_id
                        break
                if placed is None:
                    placed = blocked_insert(key, size, off, t)
                    if placed is None:  # pragma: no cover - prechecked
                        raise EngineStateError(
                            "injection bail after mutation"
                        )
                # Re-point the key's carrier at the new placement
                # and repair its future GET-hit run to this size.
                sg_arr[carrier] = placed
                occ = occurrences(key)
                j = int(np.searchsorted(occ, t, side="right"))
                while j < len(occ):
                    p = int(occ[j])
                    if ops[p] != OP_GET_ or not hit_b[p]:
                        break
                    rs[p] = size
                    j += 1
        settle(stop)
        if stop == n:
            # End of trace: nothing is left to open another epoch, so
            # the deferred read side lands here.
            read_settle(n)
        return stop

    return advance


# ======================================================================
# Per-engine kernel registry
# ======================================================================

@dataclass(frozen=True)
class KernelSpec:
    """One engine type's whole-trace columnar kernel.

    ``ineligible_reason`` returns a human-readable refusal (or None when
    the kernel may run); ``replay`` has the common kernel signature
    ``(engine, trace, *, step_us, latency, sampled_metrics)``: it opens
    the replay (decision pass) and returns its :data:`Advance`.
    """

    name: str
    ineligible_reason: Callable[[object, Trace], str | None]
    replay: Callable[..., Advance]


#: Engine type -> whole-trace kernel.  Dispatch (the runner, and through
#: it the cluster's shard workers) consults this instead of hardcoding
#: engine checks.
KERNEL_REGISTRY: dict[type, KernelSpec] = {
    LogStructuredCache: KernelSpec(
        name="log",
        ineligible_reason=log_kernel_ineligible_reason,
        replay=replay_log_columnar,
    ),
    NemoCache: KernelSpec(
        name="nemo",
        ineligible_reason=nemo_kernel_ineligible_reason,
        replay=replay_nemo_columnar,
    ),
}


def kernel_for(engine: object) -> KernelSpec | None:
    """The registered whole-trace kernel for this engine type, if any."""
    return KERNEL_REGISTRY.get(type(engine))


def kernel_ineligible_reason(engine: object, trace: Trace) -> str | None:
    """Why no whole-trace kernel will replay this combination (or None).

    Unregistered engine types get a registry-level reason; registered
    ones defer to their kernel's own eligibility check.
    """
    spec = KERNEL_REGISTRY.get(type(engine))
    if spec is None:
        registered = ", ".join(
            sorted(t.__name__ for t in KERNEL_REGISTRY)
        )
        return (
            f"{type(engine).__name__} has no whole-trace columnar kernel "
            f"(registered: {registered})"
        )
    return spec.ineligible_reason(engine, trace)
