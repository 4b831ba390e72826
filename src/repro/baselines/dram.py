"""DRAM cache tier and the DRAM + flash tiered composition.

The paper's engines run inside CacheLib, where a DRAM cache always
fronts the flash cache: lookups hit memory first, and objects evicted
from DRAM are *admitted to flash* (flash is a victim cache).  Nemo
additionally reuses this DRAM tier as its SG buffer ("Nemo's SG buffer
reuses the existing memory cache, adding no overhead", §5.5).

:class:`DramCache` is a byte-budgeted LRU; :class:`TieredCache` wires a
DRAM tier in front of any :class:`~repro.baselines.base.CacheEngine`,
preserving the flash engine's own metrics (its WA/miss figures then
describe the flash tier exactly as the paper reports them).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection

from repro.baselines.base import CacheEngine
from repro.errors import ConfigError, ObjectTooLargeError


class DramCache:
    """Byte-budgeted LRU cache of key → size.

    Evictions return the evicted objects so a tiered composition can
    admit them to flash.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._objects: OrderedDict[int, int] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: int) -> bool:
        return key in self._objects

    def get(self, key: int) -> int | None:
        """Size of ``key`` if resident (refreshes LRU position)."""
        self.lookups += 1
        size = self._objects.get(key)
        if size is None:
            return None
        self._objects.move_to_end(key)
        self.hits += 1
        return size

    def put(self, key: int, size: int) -> list[tuple[int, int]]:
        """Admit ``key``; returns LRU victims evicted to make room."""
        if size > self.capacity_bytes:
            raise ObjectTooLargeError(
                f"object of {size} B exceeds the {self.capacity_bytes} B DRAM tier"
            )
        old = self._objects.pop(key, None)
        if old is not None:
            self.used_bytes -= old
        victims = []
        while self.used_bytes + size > self.capacity_bytes:
            vk, vs = self._objects.popitem(last=False)
            self.used_bytes -= vs
            victims.append((vk, vs))
        self._objects[key] = size
        self.used_bytes += size
        return victims

    def remove(self, key: int) -> bool:
        size = self._objects.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        return True

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return float("nan")
        return self.hits / self.lookups


class TieredCache(CacheEngine):
    """CacheLib-style DRAM + flash composition.

    - GET probe: DRAM first; a DRAM miss consults the flash engine and,
      on a flash hit, promotes the object back into DRAM.
    - Admission: new objects land in DRAM; LRU victims spill to the
      flash engine (flash-as-victim-cache, the CacheLib model).
    - Metrics: this wrapper's ``counters`` describe the end-to-end
      cache; ``flash.stats``/``flash.counters`` keep describing the
      flash tier alone, which is the view the paper's figures use.
    """

    def __init__(self, dram: DramCache, flash: CacheEngine) -> None:
        super().__init__()
        self.dram = dram
        self.flash = flash
        self.name = f"DRAM+{flash.name}"

    # No placement hash: ``placement`` is the key itself; the flash
    # tier hashes it in its own ``lookup`` / ``insert``.
    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        self.counters.lookups += 1
        if self.dram.get(key) is not None:
            self.counters.hits += 1
            return True, 0.0
        hit, latency = self.flash.lookup(key, size, now_us=now_us)
        if hit:
            self.counters.hits += 1
            self._admit_to_dram(key, size, now_us=now_us)
        return hit, latency

    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        self.record_admission(size)
        self._admit_to_dram(key, size, now_us=now_us)

    def _admit_to_dram(self, key: int, size: int, *, now_us: float) -> None:
        for victim_key, victim_size in self.dram.put(key, size):
            # DRAM victims spill into the flash tier.
            self.flash.insert(victim_key, victim_size, now_us=now_us)

    def delete(self, key: int) -> bool:
        removed = self.dram.remove(key)
        removed = self.flash.delete(key) or removed
        if removed:
            self.counters.deletes += 1
        return removed

    def object_count(self) -> int:
        # DRAM and flash may both hold a key (promotion); report the
        # flash tier plus DRAM-only residents, bounded by a simple sum.
        return len(self.dram) + self.flash.object_count()

    def memory_overhead_bits_per_object(self) -> float:
        """The flash tier's metadata cost; the DRAM tier is capacity,
        not metadata (the paper's bits/obj concern flash indexing)."""
        return self.flash.memory_overhead_bits_per_object()

    @property
    def write_amplification(self) -> float:
        """Flash-tier WA (the paper's metric)."""
        return self.flash.write_amplification

    def metrics_snapshot(
        self, keys: Collection[str] | None = None
    ) -> dict[str, float]:
        snap = self.flash.metrics_snapshot(keys)
        snap.update(
            {
                "lookups": self.counters.lookups,
                "hits": self.counters.hits,
                "miss_ratio": self.counters.miss_ratio,
                "dram_hit_ratio": self.dram.hit_ratio,
                "dram_objects": len(self.dram),
            }
        )
        return snap
