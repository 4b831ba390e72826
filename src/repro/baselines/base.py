"""Common cache-engine interface.

Every engine (the four baselines and Nemo) implements
:class:`CacheEngine`, so the harness, experiments, and tests drive them
interchangeably — the role CacheLib's engine API plays in the paper's
artifact.

Semantics shared by all engines:

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
from typing import TYPE_CHECKING, Callable, Collection

from repro.errors import EngineStateError
from repro.flash.latency import LatencyModel
from repro.flash.stats import FlashStats
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET

if TYPE_CHECKING:
    from repro.flash.devsim.frontend import ServiceFn
    from repro.workloads.trace import Trace


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of one lookup.

    Attributes
    ----------
    hit:
        Whether the object was served from the cache (memory or flash).
    latency_us:
        Simulated service latency (0.0 when no latency model attached).
    flash_reads:
        Flash pages read to serve this lookup (read amplification probe).
    source:
        Where the hit came from: ``"memory"``, ``"flash"``, or ``"miss"``.
    """

    hit: bool
    latency_us: float = 0.0
    flash_reads: int = 0
    source: str = "miss"


#: LookupResult is frozen, so the constant outcomes are shared instances
#: instead of per-lookup allocations (lookup is the replay hot path).
MISS = LookupResult(hit=False)
MEMORY_HIT = LookupResult(hit=True, source="memory")


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
    @abc.abstractmethod
    def lookup(self, key: int, size: int, now_us: float = 0.0) -> LookupResult:
        """Look ``key`` up; never mutates flash placement."""

    @abc.abstractmethod
    def insert(self, key: int, size: int, now_us: float = 0.0) -> None:
        """Admit object ``key`` of ``size`` bytes."""

    def delete(self, key: int) -> bool:
        """User-driven removal.  Default: engines without cheap deletion
        simply report absence; subclasses override where the structure
        supports it."""
        return False

    # ------------------------------------------------------------------
    # Columnar replay support (DESIGN.md §5)
    # ------------------------------------------------------------------
    def columnar_spec(self) -> tuple[int, int] | None:
        """``(hash_seed, modulus)`` of the placement hash this engine's
        bulk paths can consume as a precomputed ``offsets=`` column
        (``Trace.columns(seed, modulus).set_ids``; the replay runner
        supplies it chunk by chunk on every bulk lane), or None when
        the engine has no such column.  Engines that return a spec must
        accept ``offsets=`` in ``lookup_many``/``insert_many`` and
        produce byte-identical metrics with or without it."""
        return None

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
    # to one of these.  The contract per request is exactly the scalar
    # loop's: GET = lookup + read-through insert on miss, SET = insert,
    # DELETE = delete, and the simulated clock advances by ``step_us``
    # *after* each request (same float accumulation order, so metrics
    # are byte-identical to per-request dispatch).  Each returns the
    # advanced clock.  Engines override these with inlined fast paths;
    # the defaults fall back to the scalar methods.

    def lookup_many(
        self,
        keys: list[int],
        sizes: list[int],
        now_us: float,
        step_us: float,
        record: Callable[[float], None] | None = None,
    ) -> float:
        """Process one GET run; ``record`` (if given) receives each
        request's service latency in order."""
        lookup = self.lookup
        insert = self.insert
        if record is None:
            for key, size in zip(keys, sizes):
                if not lookup(key, size, now_us).hit:
                    insert(key, size, now_us)
                now_us += step_us
        else:
            for key, size in zip(keys, sizes):
                result = lookup(key, size, now_us)
                record(result.latency_us)
                if not result.hit:
                    insert(key, size, now_us)
                now_us += step_us
        return now_us

    def insert_many(
        self, keys: list[int], sizes: list[int], now_us: float, step_us: float
    ) -> float:
        """Process one SET run."""
        insert = self.insert
        for key, size in zip(keys, sizes):
            insert(key, size, now_us)
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

    # ------------------------------------------------------------------
    # Closed-loop service (DESIGN.md §9)
    # ------------------------------------------------------------------
    def service_fn(self, trace: Trace) -> ServiceFn:
        """``(index, now_us) -> latency_us``: run request ``index`` of
        ``trace`` as the scalar loop does — GET = ``lookup`` + read-through
        ``insert`` on a miss, SET = ``insert``, DELETE = ``delete`` (both
        host-acked, 0).  An override must give the same latencies,
        counters and RNG draws, and may bind only state never rebound."""
        ops = trace.ops.tolist()
        keys = trace.keys.tolist()
        sizes = trace.sizes.tolist()
        lookup = self.lookup
        insert = self.insert
        delete = self.delete

        def service(index: int, now_us: float) -> float:
            op = ops[index]
            if op == OP_GET:
                result = lookup(keys[index], sizes[index], now_us)
                if not result.hit:
                    insert(keys[index], sizes[index], now_us)
                return result.latency_us
            if op == OP_SET:
                insert(keys[index], sizes[index], now_us)
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
