"""Tenant namespacing, admission quotas, and per-tenant accounting.

Multi-tenancy is layered *around* the engines, not into them: a tenant
is a namespaced slice of the cluster's key space plus an admission
budget, and :class:`TenantMeterEngine` wraps any registered
:class:`~repro.baselines.base.CacheEngine` to meter and police requests
per tenant without the engine knowing tenants exist.  That keeps every
engine's metrics byte-identical to its single-tenant behaviour — the
meter observes the request stream, it does not reorder or rewrite it.

Key namespacing packs the tenant id into the top bits of the int64 key
(``key = tenant_id << 48 | local_key``), so a multi-tenant trace is an
ordinary :class:`~repro.workloads.trace.Trace` and every existing
replay lane, router, and engine consumes it unchanged; the tenant of
any request is recovered with one shift.

Quotas are *write budgets*: a cap on the cumulative logical bytes a
tenant may admit into one shard (the FDP-style currency — flash
endurance is consumed by writes, and a write budget bounds the WA a
noisy tenant can inflict on the device).  An insert over budget is
rejected and counted; the object is simply not cached, so the tenant
pays with its own miss ratio rather than with neighbours' flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.baselines.base import CacheEngine
from repro.errors import ConfigError

#: Bits of local key space per tenant (and the namespacing shift).
TENANT_KEY_BITS = 48
#: Highest usable tenant id: the packed key must stay a positive int64.
MAX_TENANT_ID = (1 << (63 - TENANT_KEY_BITS)) - 1
_LOCAL_MASK = (1 << TENANT_KEY_BITS) - 1


def namespace_keys(keys: np.ndarray, tenant_id: int) -> np.ndarray:
    """Pack ``tenant_id`` into the top bits of a local key column."""
    if not 0 <= tenant_id <= MAX_TENANT_ID:
        raise ConfigError(
            f"tenant_id must be in [0, {MAX_TENANT_ID}], got {tenant_id}"
        )
    local = np.asarray(keys, dtype=np.int64)
    if len(local) and int(local.min()) < 0:
        raise ConfigError("local keys must be non-negative")
    if len(local) and int(local.max()) > _LOCAL_MASK:
        raise ConfigError(
            f"local keys must fit in {TENANT_KEY_BITS} bits"
        )
    return local | np.int64(tenant_id << TENANT_KEY_BITS)


def tenant_of(key: int) -> int:
    """Tenant id packed in one namespaced key (0 for plain keys)."""
    return int(key) >> TENANT_KEY_BITS


def tenant_of_array(keys: np.ndarray) -> np.ndarray:
    """Tenant id column for a namespaced key column."""
    shifted: np.ndarray = np.asarray(keys, dtype=np.int64) >> np.int64(
        TENANT_KEY_BITS
    )
    return shifted


def local_key(key: int) -> int:
    """The tenant-local key packed in a namespaced key."""
    return int(key) & _LOCAL_MASK


@dataclass
class TenantAccount:
    """Per-tenant request counters one shard's meter accumulates.

    All integers, all monotonic — the cluster merge sums them across
    shards and rebuilds ratios, exactly like the engine counters.
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    insert_bytes: int = 0
    deletes: int = 0
    rejected_inserts: int = 0
    rejected_bytes: int = 0

    @property
    def miss_ratio(self) -> float:
        if self.lookups == 0:
            return float("nan")
        return 1.0 - self.hits / self.lookups

    def as_dict(self) -> dict[str, int]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "insert_bytes": self.insert_bytes,
            "deletes": self.deletes,
            "rejected_inserts": self.rejected_inserts,
            "rejected_bytes": self.rejected_bytes,
        }

    def merge(self, other: "TenantAccount") -> None:
        """Fold another shard's account for the same tenant into this."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.inserts += other.inserts
        self.insert_bytes += other.insert_bytes
        self.deletes += other.deletes
        self.rejected_inserts += other.rejected_inserts
        self.rejected_bytes += other.rejected_bytes


class TenantMeterEngine(CacheEngine):
    """Wrap one shard's engine with per-tenant metering and quotas.

    Only the per-request probe and admission are overridden; the
    inherited bulk defaults (``lookup_many`` / ``insert_many`` /
    ``delete_many``) loop them, so every replay lane drives quota
    enforcement and metering through the same code path.  The meter
    reports the inner engine's ``columnar_spec``, so the runner's
    placement column reaches the inner engine unchanged.

    The wrapper shares the inner engine's ``stats``/``counters``
    objects, so harness sampling (``metrics_snapshot``) reports the
    engine's own numbers; tenant-sliced numbers live in
    :meth:`tenant_accounts`.
    """

    def __init__(
        self,
        inner: CacheEngine,
        quotas: Mapping[int, int] | None = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        # Share the inner engine's accounting objects: the meter is an
        # observer, not a second set of books.
        self.stats = inner.stats
        self.counters = inner.counters
        self.quotas: dict[int, int] = dict(quotas or {})
        for tid, budget in self.quotas.items():
            if budget < 0:
                raise ConfigError(
                    f"tenant {tid} quota must be non-negative, got {budget}"
                )
        self._accounts: dict[int, TenantAccount] = {}

    def _account(self, tenant_id: int) -> TenantAccount:
        acct = self._accounts.get(tenant_id)
        if acct is None:
            acct = self._accounts[tenant_id] = TenantAccount()
        return acct

    # ------------------------------------------------------------------
    # Core operations (metered)
    # ------------------------------------------------------------------
    def columnar_spec(self) -> tuple[int, int] | None:
        """The inner engine's placement hash: ``placement`` is handed
        through unchanged, so a key is hashed once."""
        return self.inner.columnar_spec()

    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        hit, latency = self.inner._lookup_at(key, size, placement, now_us)
        acct = self._account(tenant_of(key))
        acct.lookups += 1
        if hit:
            acct.hits += 1
        return hit, latency

    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        tid = tenant_of(key)
        acct = self._account(tid)
        budget = self.quotas.get(tid)
        if budget is not None and acct.insert_bytes + size > budget:
            acct.rejected_inserts += 1
            acct.rejected_bytes += size
            return
        acct.inserts += 1
        acct.insert_bytes += size
        self.inner._insert_at(key, size, placement, now_us)

    def delete(self, key: int) -> bool:
        self._account(tenant_of(key)).deletes += 1
        return self.inner.delete(key)

    # ------------------------------------------------------------------
    # Introspection (delegated)
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        return self.inner.object_count()

    def memory_overhead_bits_per_object(self) -> float:
        return self.inner.memory_overhead_bits_per_object()

    @property
    def write_amplification(self) -> float:
        return self.inner.write_amplification

    def tenant_accounts(self) -> dict[int, TenantAccount]:
        """Accounts for every tenant seen, keyed by tenant id (sorted)."""
        return {t: self._accounts[t] for t in sorted(self._accounts)}


@dataclass(frozen=True)
class TenantRollup:
    """Cluster-wide isolation metrics for one tenant.

    ``attributed_flash_write_bytes`` shares each shard's flash traffic
    across its tenants proportionally to admitted logical bytes — the
    device writes pages, not tenant-labelled bytes, so exact attribution
    does not exist; the proportional estimator is the standard one (it
    is exact when tenants' bytes mix uniformly into pages).
    """

    tenant_id: int
    account: TenantAccount
    attributed_host_write_bytes: float
    attributed_flash_write_bytes: float
    #: Attributed flash writes / admitted logical bytes (the per-tenant
    #: analogue of total WA; nan when the tenant admitted nothing).
    write_amplification: float = float("nan")
    #: Shared-run metric minus solo-run reference (None until a solo
    #: reference replay has been attached).
    interference: "TenantInterference | None" = None

    @property
    def miss_ratio(self) -> float:
        return self.account.miss_ratio


@dataclass(frozen=True)
class TenantInterference:
    """Shared-run minus solo-run deltas for one tenant.

    The solo reference replays *only this tenant's requests* on a fresh,
    identically-configured cluster; positive deltas mean sharing the
    device with other tenants cost this tenant miss ratio or WA.
    """

    solo_miss_ratio: float
    solo_write_amplification: float
    delta_miss_ratio: float
    delta_write_amplification: float


def rollup_tenants(
    shard_accounts: list[dict[int, TenantAccount]],
    shard_host_write_bytes: list[int],
    shard_flash_write_bytes: list[int],
) -> dict[int, TenantRollup]:
    """Merge per-shard tenant accounts into cluster-wide rollups.

    Deterministic: shards are folded in shard order, tenants reported
    in tenant-id order, and the proportional attribution is plain float
    arithmetic on integer counters.
    """
    merged: dict[int, TenantAccount] = {}
    host_attr: dict[int, float] = {}
    flash_attr: dict[int, float] = {}
    for accounts, host_bytes, flash_bytes in zip(
        shard_accounts, shard_host_write_bytes, shard_flash_write_bytes
    ):
        shard_logical = sum(a.insert_bytes for a in accounts.values())
        for tid in sorted(accounts):
            acct = accounts[tid]
            merged.setdefault(tid, TenantAccount()).merge(acct)
            if shard_logical > 0:
                share = acct.insert_bytes / shard_logical
                host_attr[tid] = host_attr.get(tid, 0.0) + host_bytes * share
                flash_attr[tid] = (
                    flash_attr.get(tid, 0.0) + flash_bytes * share
                )
    rollups: dict[int, TenantRollup] = {}
    for tid in sorted(merged):
        acct = merged[tid]
        flash = flash_attr.get(tid, 0.0)
        wa = (
            flash / acct.insert_bytes
            if acct.insert_bytes > 0
            else float("nan")
        )
        rollups[tid] = TenantRollup(
            tenant_id=tid,
            account=acct,
            attributed_host_write_bytes=host_attr.get(tid, 0.0),
            attributed_flash_write_bytes=flash,
            write_amplification=wa,
        )
    return rollups
