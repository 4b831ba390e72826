"""Reference Nemo GETs: a real-filter engine and the plain scalar GET.

:class:`RealFilterNemo` gives every flushed set a real
:class:`~tests.core.reference.bloom.BloomFilter` and answers a consult
by scanning the SG pool newest-first, reading every SG whose filter
admits the key and stopping at the first verified hit.  The library's
engine resolves membership exactly and draws false positives instead,
so the two must agree on every hit, on WA and on every write, and differ
only in which pages a consult reads.

:func:`reference_get` is the scalar GET the library's inline loops
replace, one helper call per step: ``queue.find``, ``_consult_index``,
:func:`statistical_candidates` (the engine's false-positive draws),
``device.read_many``, ``hotness.record_access`` and ``_insert_at`` on a
miss.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.baselines.base import CacheEngine
from repro.core.nemo import FlashSG, NemoCache
from tests.core.reference.bloom import BloomFilter

#: ``(engine, key, offset) -> (pages to read, holder SG or None)``.
Candidates = Callable[[NemoCache, int, int], tuple[list[int], FlashSG | None]]


def statistical_candidates(
    engine: NemoCache, key: int, offset: int
) -> tuple[list[int], FlashSG | None]:
    """The statistical candidate scan, one draw at a time.

    The holder comes from the exact map.  Only false positives among
    the SGs *newer* than the holder (every SG on a miss) are read
    before the scan stops; one ``random()`` decides whether any fired
    (P ≈ n · fp) and one ``randrange`` picks the pool SG it reads.
    """
    pool = engine.pool
    holder_id = engine._flash_index.get(key)
    holder = None if holder_id is None else engine._pool_map[holder_id]
    if holder is None:
        n_scanned = len(pool)
    else:
        n_scanned = len(pool) - 1 - (holder.sg_id - pool[0].sg_id)
    pages: list[int] = []
    rng = engine._rng
    if n_scanned > 0 and rng.random() < n_scanned * engine.config.bf_false_positive_rate:
        pages.append(pool[rng.randrange(len(pool))].page_of(offset))
        engine.false_positive_reads += 1
    if holder is not None:
        pages.append(holder.page_of(offset))
    return pages, holder


def probe(
    engine: NemoCache, key: int, offset: int, now_us: float, candidates: Candidates
) -> tuple[bool, float]:
    """One scalar GET probe: ``(hit, latency_us)``; never admits."""
    counters = engine.counters
    counters.lookups += 1
    mem_size = engine.queue.find(offset, key)
    if mem_size is not None:
        counters.hits += 1
        engine.stats.logical_read_bytes += mem_size
        return True, 0.0
    if not engine.pool:
        return False, 0.0
    latency = engine._consult_index(offset, now_us)[1]
    pages, holder = candidates(engine, key, offset)
    if pages:
        latency = max(latency, engine.device.read_many(pages, now_us))
    if holder is None:
        return False, latency
    counters.hits += 1
    engine.stats.logical_read_bytes += holder.sets[offset][key]
    in_window = (holder.sg_id - engine.pool[0].sg_id) < engine._window_sgs
    engine.hotness.record_access(key, offset, in_window=in_window)
    return True, latency


def reference_get(
    engine: NemoCache, key: int, size: int, now_us: float
) -> tuple[bool, float]:
    """The plain scalar Nemo GET with read-through admission."""
    offset = engine._placement_of(key)
    hit, latency = probe(engine, key, offset, now_us, statistical_candidates)
    if not hit:
        engine._insert_at(key, size, offset, now_us)
    return hit, latency


class RealFilterNemo(NemoCache):
    """Nemo whose consults query real per-set Bloom filters."""

    # Every GET, bulk or scalar, goes through the overridden probe.
    lookup_many = CacheEngine.lookup_many

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: One filter list per pool SG, aligned with ``self.pool``.
        self.filters: deque[list[BloomFilter]] = deque()

    def _flush_front(self, *, now_us: float = 0.0) -> None:
        super()._flush_front(now_us=now_us)
        config = self.config
        filters = []
        for objs in self.pool[-1].sets:
            bf = BloomFilter.for_capacity(
                config.bf_capacity_per_set, config.bf_false_positive_rate
            )
            for key in objs:
                bf.add(key)
            filters.append(bf)
        self.filters.append(filters)

    def _evict_oldest_sg(self, *, now_us: float = 0.0) -> None:
        super()._evict_oldest_sg(now_us=now_us)
        self.filters.popleft()

    def _real_candidates(
        self, key: int, offset: int
    ) -> tuple[list[int], FlashSG | None]:
        """Newest-first over the pool: read every SG whose filter admits
        ``key``; the first that holds it ends the scan."""
        pages: list[int] = []
        for fsg, filters in zip(reversed(self.pool), reversed(self.filters)):
            if key in filters[offset]:
                pages.append(fsg.page_of(offset))
                if key in fsg.sets[offset]:
                    return pages, fsg
                self.false_positive_reads += 1
        return pages, None

    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        return probe(self, key, placement, now_us, RealFilterNemo._real_candidates)
