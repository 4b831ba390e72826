"""Numpy-backed request traces.

A :class:`Trace` is three parallel arrays — operation, key, object size —
plus metadata.  Object sizes are *per key* (an object's size never changes
between requests for the same key), which the generators guarantee by
drawing sizes from a per-key table.

Operations mirror a KV cache's client API (§2.1): GET (lookup; on a miss
the harness admits the object, i.e. read-through), SET (explicit write),
and DELETE (user-driven removal — distinct from cache-driven eviction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.hashing import splitmix64_array

OP_GET = 0
OP_SET = 1
OP_DELETE = 2

_OP_NAMES = {OP_GET: "get", OP_SET: "set", OP_DELETE: "delete"}


def _placement(keys: np.ndarray, seed: int, num_sets: int) -> np.ndarray:
    """``hash64(key, seed) % num_sets`` per key (``int64``)."""
    if num_sets <= 0:
        raise TraceError("num_sets must be positive")
    hashes = splitmix64_array(keys, seed)
    return (hashes % np.uint64(num_sets)).astype(np.int64)


@dataclass
class Trace:
    """A replayable request trace.

    Attributes
    ----------
    ops:
        ``uint8`` array of OP_GET / OP_SET / OP_DELETE.
    keys:
        ``int64`` array of key identifiers.  Keys are opaque integers;
        engines hash them.
    sizes:
        ``int64`` array of total object sizes (key + value bytes) for the
        key of each request.
    name:
        Human-readable label ("cluster_52", "twitter-mix", ...).
    num_keys:
        Size of the key universe this trace draws from (metadata).
    """

    ops: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    name: str = "trace"
    num_keys: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ops = np.asarray(self.ops, dtype=np.uint8)
        self.keys = np.asarray(self.keys, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self._column_cache: dict[tuple[int, int], np.ndarray] = {}
        # Scratch cache for replay kernels (harness/columnar.py): holds
        # decision columns that are pure functions of this trace, keyed
        # by the kernel's own (name, params) tuples.  Sliced/repeated
        # traces are new objects and start with a fresh cache.
        self._kernel_cache: dict[object, object] = {}
        if not (len(self.ops) == len(self.keys) == len(self.sizes)):
            raise TraceError(
                "ops/keys/sizes arrays must have equal length "
                f"({len(self.ops)}/{len(self.keys)}/{len(self.sizes)})"
            )
        if len(self.sizes) and int(self.sizes.min()) <= 0:
            raise TraceError("object sizes must be positive")
        if self.num_keys == 0 and len(self.keys):
            self.num_keys = int(self.keys.max()) + 1

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------
    # Columnar hash columns (computed once per placement, cached)
    # ------------------------------------------------------------------
    def columns(self, seed: int, num_sets: int) -> np.ndarray:
        """Hash every key once into a placement column.

        Element ``i`` is ``hash64(keys[i], seed) % num_sets`` exactly:
        the engine's placement unit (Nemo's intra-SG set offset, Set's
        set id, FW/KG's log bucket), so engines consuming the column are
        byte-identical to their per-request splitmix chains.  Cached per
        ``(seed, num_sets)``: replaying the same trace against several
        engines re-uses the vectorised hash pass.
        """
        cache_key = (seed, num_sets)
        cached = self._column_cache.get(cache_key)
        if cached is None:
            cached = self._column_cache[cache_key] = _placement(
                self.keys, seed, num_sets
            )
        return cached

    def set_id_slice(
        self, seed: int, num_sets: int, start: int, stop: int
    ) -> np.ndarray:
        """``columns(seed, num_sets)[start:stop]`` without the
        whole-trace pass.

        The replay dispatch loop asks chunk by chunk.  A column already
        cached (a whole-trace kernel ran first) is sliced; otherwise
        only the chunk's keys are hashed and nothing is retained, so the
        column cache does not grow on lanes that never need the whole
        column.
        """
        cached = self._column_cache.get((seed, num_sets))
        if cached is not None:
            return cached[start:stop]
        return _placement(self.keys[start:stop], seed, num_sets)

    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "Trace":
        """A view-backed sub-trace over requests ``[start, stop)``."""
        return Trace(
            ops=self.ops[start:stop],
            keys=self.keys[start:stop],
            sizes=self.sizes[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            num_keys=self.num_keys,
            meta=dict(self.meta),
        )

    def repeat(self, times: int) -> "Trace":
        """Concatenate the trace with itself ``times`` times."""
        if times < 1:
            raise TraceError("times must be >= 1")
        return Trace(
            ops=np.tile(self.ops, times),
            keys=np.tile(self.keys, times),
            sizes=np.tile(self.sizes, times),
            name=f"{self.name}x{times}",
            num_keys=self.num_keys,
            meta=dict(self.meta),
        )

    # ------------------------------------------------------------------
    # Summary statistics (used by tests and EXPERIMENTS.md tables)
    # ------------------------------------------------------------------
    @property
    def mean_object_size(self) -> float:
        """Mean object size over *distinct keys seen* (not requests)."""
        if len(self) == 0:
            return float("nan")
        _, first_idx = np.unique(self.keys, return_index=True)
        return float(self.sizes[first_idx].mean())

    @property
    def mean_request_size(self) -> float:
        """Mean object size over requests (hot keys weighted up)."""
        if len(self) == 0:
            return float("nan")
        return float(self.sizes.mean())

    @property
    def working_set_bytes(self) -> int:
        """Total bytes of all distinct objects referenced by the trace."""
        if len(self) == 0:
            return 0
        _, first_idx = np.unique(self.keys, return_index=True)
        return int(self.sizes[first_idx].sum())

    @property
    def unique_key_count(self) -> int:
        return int(np.unique(self.keys).size)

    def op_mix(self) -> dict[str, float]:
        """Fraction of each operation type."""
        if len(self) == 0:
            return {}
        counts = np.bincount(self.ops, minlength=3)
        total = counts.sum()
        return {_OP_NAMES[i]: counts[i] / total for i in range(3) if counts[i]}

    def describe(self) -> str:
        return (
            f"Trace {self.name!r}: {len(self):,} reqs, "
            f"{self.unique_key_count:,} keys, "
            f"avg obj {self.mean_object_size:.0f} B, "
            f"WSS {self.working_set_bytes / (1024 * 1024):.1f} MiB"
        )
