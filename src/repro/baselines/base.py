"""Common cache-engine interface.

Every engine (the four baselines and Nemo) implements
:class:`CacheEngine`, so the harness, experiments, and tests drive them
interchangeably — the role CacheLib's engine API plays in the paper's
artifact.

Semantics shared by all engines:

- Each engine writes one GET probe, ``_lookup_at(key, size, placement,
  now_us) -> (hit, latency_us)``, and one admission, ``_insert_at(key,
  size, placement, now_us)``; ``placement`` is the key's
  :meth:`~CacheEngine.columnar_spec` hash, or the key itself.  Every
  other request method is derived from these two here.
- ``lookup(key, size)`` returns a :class:`LookupResult`; on a miss the
  harness normally calls ``insert`` (read-through admission — a cache,
  unlike a store, chooses what to keep, §2.1).
- ``insert(key, size)`` admits (or refreshes) an object.  New-object
  bytes are recorded as *logical writes* for ALWA; engines that rewrite
  existing data (RMW, migration, GC writeback) do **not** count those
  bytes as logical.
- ``delete(key)`` is user-driven removal; eviction is engine-driven.
- ``memory_overhead_bits_per_object()`` reports DRAM metadata cost in
  the paper's bits/object currency (Table 6).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple, Sequence

import numpy as np

from repro.errors import EngineStateError
from repro.flash.latency import LatencyModel
from repro.flash.stats import FlashStats
from repro.hashing import hash64, splitmix64_array
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET

if TYPE_CHECKING:
    from repro.flash.devsim.frontend import ServiceFn
    from repro.workloads.trace import Trace

#: Keys hashed per vectorised pass when :meth:`CacheEngine.service_fn`
#: builds a whole-trace placement column: bounds the hash's temporaries
#: to a block instead of several 8-byte arrays the length of the trace.
_HASH_BLOCK = 1 << 14


class LookupResult(NamedTuple):
    """Outcome of one lookup: whether the object was served from the
    cache (memory or flash), and the simulated service latency (0.0
    when no latency model is attached)."""

    hit: bool
    latency_us: float = 0.0


@dataclass
class EngineCounters:
    """Request-level counters every engine maintains."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    insert_bytes: int = 0
    deletes: int = 0
    evicted_objects: int = 0
    evicted_bytes: int = 0

    @property
    def miss_ratio(self) -> float:
        if self.lookups == 0:
            return float("nan")
        return 1.0 - self.hits / self.lookups

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return float("nan")
        return self.hits / self.lookups


class CacheEngine(abc.ABC):
    """Abstract flash-cache engine."""

    #: Short display name ("Nemo", "FW", "KG", "Log", "Set").
    name: str = "engine"

    def __init__(self) -> None:
        self.stats = FlashStats()
        self.counters = EngineCounters()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    # ``placement`` is the request's ``columnar_spec()`` hash, or the key
    # itself on an engine without one.  The two abstract methods are an
    # engine's only GET probe and only admission; every scalar, bulk and
    # closed-loop request method below is derived from them.

    @abc.abstractmethod
    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        """Probe for ``key`` at ``placement``: ``(hit, latency_us)``.
        Never admits and never mutates flash placement."""

    @abc.abstractmethod
    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        """Admit object ``key`` of ``size`` bytes at ``placement``."""

    def _placement_of(self, key: int) -> int:
        """``hash64(key, seed) % modulus`` of :meth:`columnar_spec`, or
        the key itself on an engine without a placement hash."""
        spec = self.columnar_spec()
        if spec is None:
            return key
        return hash64(key, spec[0]) % spec[1]

    def lookup(self, key: int, size: int, now_us: float = 0.0) -> LookupResult:
        """Look ``key`` up; never mutates flash placement."""
        return LookupResult(*self._lookup_at(key, size, self._placement_of(key), now_us))

    def insert(self, key: int, size: int, now_us: float = 0.0) -> None:
        """Admit object ``key`` of ``size`` bytes."""
        self._insert_at(key, size, self._placement_of(key), now_us)

    def delete(self, key: int) -> bool:
        """User-driven removal.  Default: engines without cheap deletion
        simply report absence; subclasses override where the structure
        supports it."""
        return False

    # ------------------------------------------------------------------
    # Columnar replay support (DESIGN.md §5)
    # ------------------------------------------------------------------
    def columnar_spec(self) -> tuple[int, int] | None:
        """``(hash_seed, modulus)`` of this engine's placement hash, or
        None when the key itself is the placement.  The bulk paths take
        it as a precomputed ``offsets=`` column
        (``Trace.columns(seed, modulus).set_ids``; the replay runner
        supplies it chunk by chunk on every bulk lane) and produce
        byte-identical metrics with or without it."""
        return None

    def _placement_column(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """``hash64(key, seed) % modulus`` of :meth:`columnar_spec` over
        a key batch: one ``splitmix64_array`` sweep, element-wise equal
        to :meth:`_placement_of`."""
        spec = self.columnar_spec()
        if spec is None:
            raise EngineStateError(f"{type(self).__name__} has no placement hash")
        seed, modulus = spec
        hashed = splitmix64_array(np.asarray(keys, dtype=np.uint64), seed)
        column: np.ndarray = hashed % np.uint64(modulus)
        return column

    def _placements(self, keys: list[int]) -> list[int]:
        """Placement column of a key batch: :meth:`_placement_column` as
        a list, or the keys themselves on an engine without a hash."""
        if self.columnar_spec() is None:
            return keys
        placements: list[int] = self._placement_column(keys).tolist()
        return placements

    # ------------------------------------------------------------------
    # Latency lanes (DESIGN.md §9)
    # ------------------------------------------------------------------
    def install_latency_model(self, model: LatencyModel | None) -> None:
        """Attach (or with None, detach) a device latency model.

        Engines with more than one device override this; the default
        forwards to ``self.device``'s ``latency`` slot.  Swapping lanes
        on a live engine is legal: the model only *times* device
        operations, so aggregate counters (WA, miss ratio, op counts)
        are lane-invariant — the metric-parity suite asserts exactly
        that.
        """
        device = getattr(self, "device", None)
        if device is None:
            raise EngineStateError(
                f"{type(self).__name__} has no device to install a latency model on"
            )
        device.latency = model

    def latency_model(self) -> LatencyModel | None:
        """The currently attached device latency model (None when bare)."""
        return getattr(getattr(self, "device", None), "latency", None)

    # ------------------------------------------------------------------
    # Bulk operations (batched replay dispatch)
    # ------------------------------------------------------------------
    # The harness slices the trace into same-op runs and hands each run
    # to one of these, with the run's placement column as ``offsets``
    # (derived here when a direct caller passes none).  Per request: GET
    # = ``_lookup_at`` + read-through ``_insert_at`` on a miss, SET =
    # ``_insert_at``, DELETE = ``delete``, and the simulated clock
    # advances by ``step_us`` *after* each request (same float
    # accumulation order on every lane, so metrics are byte-identical).
    # Each returns the advanced clock.  An engine may override
    # ``lookup_many`` with an inlined loop that serves every lane, timed
    # and recorded runs included: it must be observationally identical
    # to the default, latency-model calls and recorded latencies too.

    def lookup_many(
        self,
        keys: list[int],
        sizes: list[int],
        now_us: float,
        step_us: float,
        record: Callable[[float], None] | None = None,
        *,
        offsets: list[int] | None = None,
    ) -> float:
        """Process one GET run; ``record`` (if given) receives each
        request's service latency in order."""
        if offsets is None:
            offsets = self._placements(keys)
        return self._get_many(keys, sizes, offsets, now_us, step_us, record)

    def insert_many(
        self,
        keys: list[int],
        sizes: list[int],
        now_us: float,
        step_us: float,
        *,
        offsets: list[int] | None = None,
    ) -> float:
        """Process one SET run."""
        if offsets is None:
            offsets = self._placements(keys)
        insert_at = self._insert_at
        for key, size, placement in zip(keys, sizes, offsets):
            insert_at(key, size, placement, now_us)
            now_us += step_us
        return now_us

    def delete_many(
        self, keys: list[int], now_us: float, step_us: float
    ) -> float:
        """Process one DELETE run."""
        delete = self.delete
        for key in keys:
            delete(key)
            now_us += step_us
        return now_us

    def _get_many(
        self,
        keys: list[int],
        sizes: list[int],
        placements: Sequence[int],
        now_us: float,
        step_us: float,
        record: Callable[[float], None] | None,
    ) -> float:
        """A GET run as :meth:`_lookup_at`, then :meth:`_insert_at` on a
        miss, per request: the default ``lookup_many``, which serves the
        ``kernel="scalar"`` reference lane and engines with no inline
        loop."""
        lookup_at = self._lookup_at
        insert_at = self._insert_at
        for key, size, placement in zip(keys, sizes, placements):
            hit, latency = lookup_at(key, size, placement, now_us)
            if not hit:
                insert_at(key, size, placement, now_us)
            if record is not None:
                record(latency)
            now_us += step_us
        return now_us

    def service_fn(self, trace: Trace) -> ServiceFn:
        """``(index, now_us) -> latency_us``: run request ``index`` of
        ``trace`` — GET = :meth:`_lookup_at` + :meth:`_insert_at` on a
        miss, SET = :meth:`_insert_at`, DELETE = ``delete`` (both
        host-acked, 0).  It indexes the trace's own ``ops`` / ``keys`` /
        ``sizes`` columns and one ``int32`` placement column, hashed once
        per trace in blocks, through ``memoryview``s: no Python object
        per request."""
        ops = memoryview(trace.ops)
        keys = memoryview(trace.keys)
        sizes = memoryview(trace.sizes)
        placements = keys
        if self.columnar_spec() is not None:
            column = np.empty(len(trace), dtype=np.int32)
            for lo in range(0, len(trace), _HASH_BLOCK):
                hi = lo + _HASH_BLOCK
                column[lo:hi] = self._placement_column(trace.keys[lo:hi])
            placements = memoryview(column)
        lookup_at = self._lookup_at
        insert_at = self._insert_at
        delete = self.delete

        def service(index: int, now_us: float) -> float:
            op = ops[index]
            if op == OP_GET:
                key, size, placement = keys[index], sizes[index], placements[index]
                hit, latency = lookup_at(key, size, placement, now_us)
                if not hit:
                    insert_at(key, size, placement, now_us)
                return latency
            if op == OP_SET:
                insert_at(keys[index], sizes[index], placements[index], now_us)
            elif op == OP_DELETE:
                delete(keys[index])
            return 0.0

        return service

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def object_count(self) -> int:
        """Objects currently resident (memory + flash)."""

    @abc.abstractmethod
    def memory_overhead_bits_per_object(self) -> float:
        """DRAM metadata bits per cached object (Table 6 currency)."""

    @property
    def write_amplification(self) -> float:
        """The engine's headline WA.

        Engines on ZNS report ALWA (their DLWA is 1); engines on
        conventional devices report total WA (ALWA × DLWA) — matching
        the paper's convention ("we define Kangaroo's WA as the product
        of ALWA and device-level garbage collection overhead").
        """
        return self.stats.alwa

    def record_admission(self, size: int) -> None:
        """Account one new-object admission of ``size`` logical bytes."""
        self.counters.inserts += 1
        self.counters.insert_bytes += size
        self.stats.record_logical(size)

    def metrics_snapshot(
        self, keys: Collection[str] | None = None
    ) -> dict[str, float]:
        """Harness sampling hook: stats + request counters.

        ``keys`` names the entries the caller reads (None: all of them).
        ``object_count`` walks every set on some engines, so it is left
        out unless named; every other entry is a counter read and always
        present.
        """
        snap = self.stats.snapshot()
        snap.update(
            {
                "lookups": self.counters.lookups,
                "hits": self.counters.hits,
                "miss_ratio": self.counters.miss_ratio,
                "inserts": self.counters.inserts,
                "evicted_objects": self.counters.evicted_objects,
                "wa": self.write_amplification,
            }
        )
        if keys is None or "object_count" in keys:
            snap["object_count"] = self.object_count()
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(objects={self.object_count()}, "
            f"wa={self.write_amplification:.2f}, "
            f"miss={self.counters.miss_ratio:.3f})"
        )
