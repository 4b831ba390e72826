"""Deterministic consistent-hash request router.

Shards a key space across N cache shards with a classic
consistent-hash ring (Karger et al.): every shard owns 128 (``_VNODES``)
pseudo-random points on a 64-bit circle, and a key belongs to the shard
owning the first ring point at or after the key's hash (wrapping at the
top).  Both the ring points and the key hashes come from the repo-wide
seeded ``splitmix64`` primitives (``hashing.py``), so placement is a
pure function of ``(shard_ids, seed, key)`` — stable across processes,
platforms, and Python hash randomisation.

Why consistent hashing rather than ``hash(key) % N``: the ring is
*stable across shard-count changes*.  A ring built without one shard
reassigns only the keys that shard owned (its arcs fall to their
successors); every other key keeps its placement — the property the
hypothesis tests pin down.

The router is read-only after construction and routes whole key columns
vectorised (one ``splitmix64_array`` pass + one ``searchsorted``), which
is how the cluster replay routes a multi-million-request trace once up
front instead of per request.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.hashing import splitmix64_array

#: Seed salts deriving the two independent hash functions the ring uses.
#: Distinct from every engine placement seed so cluster routing never
#: correlates with intra-shard set placement.
_RING_SALT = 0xC1F7_51A3
_KEY_SALT = 0x7E46_9D0B

#: Virtual nodes per shard.  More vnodes -> better balance (relative
#: load spread shrinks roughly with ``1/sqrt(_VNODES)``) at a one-off
#: ring-build cost of ``len(shard_ids) * _VNODES`` hashes.
_VNODES = 128

#: Ring tokens are ``shard_id * stride + replica``; the stride exceeds
#: ``_VNODES`` and keeps tokens collision-free across shards.
_TOKEN_STRIDE = 1 << 20


class ConsistentHashRouter:
    """Seeded splitmix consistent-hash ring over integer shard ids.

    Parameters
    ----------
    shard_ids:
        The shard identifiers to place on the ring (need not be
        contiguous — a removed shard leaves a gap, which is the point).
    seed:
        Ring seed; different seeds give independent placements.
    """

    def __init__(self, shard_ids: Sequence[int], *, seed: int = 0) -> None:
        ids = [int(s) for s in shard_ids]
        if not ids:
            raise ConfigError("need at least one shard")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate shard ids: {sorted(ids)}")
        if any(s < 0 for s in ids):
            raise ConfigError("shard ids must be non-negative")
        self.shard_ids: tuple[int, ...] = tuple(sorted(ids))
        self.seed = int(seed)

        # Build the ring vectorised: one token per (shard, replica),
        # hashed with the ring-salted seed, then sorted.  Ties (hash
        # collisions between tokens) break on (shard, replica) so the
        # ring order itself is deterministic.
        id_arr = np.repeat(np.asarray(self.shard_ids, dtype=np.int64), _VNODES)
        replicas = np.tile(np.arange(_VNODES, dtype=np.int64), len(self.shard_ids))
        tokens = id_arr * _TOKEN_STRIDE + replicas
        points = splitmix64_array(tokens, self.seed ^ _RING_SALT)
        order = np.lexsort((replicas, id_arr, points))
        self._ring_points: np.ndarray = points[order]
        self._ring_owners: np.ndarray = id_arr[order]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_array(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard id for every key (vectorised, ``int64``).

        A key hashes to a point on the circle and belongs to the first
        ring point clockwise at-or-after it; past the last point the
        ring wraps to its first.
        """
        hashes = splitmix64_array(keys, self.seed ^ _KEY_SALT)
        idx = np.searchsorted(self._ring_points, hashes, side="left")
        idx[idx == len(self._ring_points)] = 0
        owners: np.ndarray = self._ring_owners[idx]
        return owners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConsistentHashRouter(shards={self.shard_ids}, "
            f"seed={self.seed})"
        )
