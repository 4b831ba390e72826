"""Tenant-interleaved multi-tenant workload generation.

The cluster experiment replays tenants with different skews and
object-size profiles on sharded flash.  A :class:`TenantSpec`
describes one tenant's workload — Zipf skew, per-key lognormal sizes,
GET fraction and traffic share — and :func:`multi_tenant_trace`
generates each tenant's sub-trace over its own *namespaced* key space
(``tenant_id << 48 | local_key``) before merging them with the
deterministic stratified interleave the Twitter mixer uses, so no
stretch of the merged trace is dominated by a single tenant.

The result is an ordinary :class:`~repro.workloads.trace.Trace`; the
tenant of any request is its key shifted right by
:data:`TENANT_KEY_BITS`, so no side-channel request metadata is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, TraceError
from repro.workloads.mixer import proportional_interleave
from repro.workloads.sizes import LogNormalSizeModel
from repro.workloads.trace import OP_GET, OP_SET, Trace
from repro.workloads.zipf import ZipfGenerator

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


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload profile.

    ``request_share`` is a relative weight: a tenant with share 2 sends
    twice the requests of a tenant with share 1.
    """

    name: str
    zipf_alpha: float = 1.1
    num_keys: int = 10_000
    mean_value_size: int = 300
    key_size: int = 24
    size_sigma: float = 0.45
    get_fraction: float = 0.97
    request_share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceError("tenant name must be non-empty")
        if self.zipf_alpha < 0:
            raise TraceError("zipf_alpha must be non-negative")
        if self.num_keys <= 0:
            raise TraceError("num_keys must be positive")
        if self.mean_value_size <= 0 or self.key_size <= 0:
            raise TraceError("object sizes must be positive")
        if not 0.0 <= self.get_fraction <= 1.0:
            raise TraceError("get_fraction must be in [0, 1]")
        if self.request_share <= 0:
            raise TraceError("request_share must be positive")


def multi_tenant_trace(
    specs: list[TenantSpec],
    *,
    num_requests: int,
    seed: int = 0,
    name: str = "mt-mix",
) -> Trace:
    """Generate a tenant-interleaved multi-tenant trace.

    Each tenant's sub-trace is generated independently (per-tenant
    seeded RNG, per-key lognormal size table, Zipf keys at the tenant's
    own skew) over its namespaced key space, then all sub-traces are
    merged with the stratified proportional interleave.  Request counts
    split proportionally to ``request_share`` by largest remainder, so
    the counts sum exactly to ``num_requests``.

    Pure function of ``(specs, num_requests, seed)``.
    """
    if not specs:
        raise TraceError("need at least one tenant spec")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise TraceError(f"duplicate tenant names: {names}")
    if num_requests < len(specs):
        raise TraceError(
            f"num_requests={num_requests} too small for {len(specs)} tenants"
        )

    # Largest-remainder split of num_requests by request_share.
    shares = np.asarray([s.request_share for s in specs], dtype=np.float64)
    exact = shares / shares.sum() * num_requests
    counts = np.floor(exact).astype(np.int64)
    remainder = num_requests - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:remainder]] += 1

    parts: list[Trace] = []
    tenant_ids: dict[str, int] = {}
    for i, (spec, count) in enumerate(zip(specs, counts)):
        tenant_id = i + 1
        tenant_ids[spec.name] = tenant_id
        tenant_seed = seed + tenant_id * 1_000_003
        # Keys before sizes, as in ``generate_cluster_trace``: the Zipf
        # draw's universe arrays are gone before the size table is drawn.
        local_keys = ZipfGenerator(
            spec.num_keys, spec.zipf_alpha, seed=tenant_seed
        ).sample(int(count))
        rng = np.random.default_rng(tenant_seed)
        value_model = LogNormalSizeModel(
            spec.mean_value_size, sigma=spec.size_sigma, minimum=8
        )
        sizes = value_model.sizes_of(local_keys, spec.num_keys, rng) + spec.key_size
        ops = np.where(
            rng.random(int(count)) < spec.get_fraction, OP_GET, OP_SET
        ).astype(np.uint8)
        parts.append(
            Trace(
                ops=ops,
                keys=namespace_keys(local_keys, tenant_id),
                sizes=sizes,
                name=f"{name}/{spec.name}",
                num_keys=spec.num_keys,
                meta={
                    "tenant": spec.name,
                    "tenant_id": tenant_id,
                    "zipf_alpha": spec.zipf_alpha,
                },
            )
        )

    mixed = proportional_interleave(parts, name=name)
    mixed.num_keys = sum(s.num_keys for s in specs)
    mixed.meta.update(
        {
            "tenants": tenant_ids,
            "seed": seed,
            "tenant_requests": {
                s.name: int(c) for s, c in zip(specs, counts)
            },
        }
    )
    return mixed
