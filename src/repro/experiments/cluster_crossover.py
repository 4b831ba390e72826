"""Cluster crossover — Nemo vs FW/KG on a sharded multi-tenant cluster.

The single-device experiments (Figures 12–16) compare engines on one
flash device under one workload.  Production tiny-object caches run as
*clusters*: N independent shards behind a consistent-hash router, shared
by tenants with different skews.  This experiment sweeps shard count
(1, 2, 4, 8) and tenant-skew profile (low vs high Zipf alpha) for Nemo
against the two strongest baselines (FairyWREN, Kangaroo) and reports
WA, miss ratio, and critical-path capacity per configuration.

The reproduced signal: Nemo's WA advantage survives sharding — routing
splits each tenant's key space across shards, so per-shard traffic gets
*less* skewed as the cluster grows, yet the WA ordering (Nemo < FW/KG)
holds at every shard count and both skew profiles, while miss ratios
stay within a few points of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import CacheCluster, ClusterConfig
from repro.harness.parallel import Cell
from repro.harness.report import format_table
from repro.workloads.multitenant import TenantSpec, multi_tenant_trace

#: Engines compared, in presentation order: factory name -> display name.
SYSTEMS = (("nemo", "Nemo"), ("fw", "FW"), ("kg", "KG"))

#: Tenant-skew profiles: profile name -> per-tenant Zipf alphas.
SKEW_PROFILES = (("low", (0.8, 0.9)), ("high", (1.2, 1.3)))


def _scale_params(scale: str) -> tuple[int, int, tuple[int, ...], int]:
    """(num_requests, keys_per_tenant, shard_counts, zones_per_shard)."""
    if scale == "micro":
        return 4_000, 800, (1, 2), 4
    if scale == "small":
        return 40_000, 4_000, (1, 2, 4, 8), 8
    if scale == "full":
        return 200_000, 12_000, (1, 2, 4, 8), 8
    raise KeyError(f"unknown scale {scale!r}")


@dataclass
class ClusterCrossoverResult:
    #: (engine, skew profile, shards) -> {"wa", "miss", "capacity"}.
    grid: dict[tuple[str, str, int], dict[str, float]] = field(
        default_factory=dict
    )
    shard_counts: tuple[int, ...] = ()

    def format(self) -> str:
        rows = []
        for (engine, skew, shards), m in self.grid.items():
            rows.append(
                [
                    engine,
                    skew,
                    shards,
                    m["wa"],
                    m["miss"],
                    f"{m['capacity'] / 1e6:.2f}M",
                ]
            )
        table = format_table(
            ["engine", "skew", "shards", "WA", "miss", "capacity req/s"],
            rows,
            float_fmt="{:.3f}",
        )
        notes = []
        for skew, _alphas in SKEW_PROFILES:
            for shards in self.shard_counts:
                ranked = sorted(
                    (
                        (m["wa"], engine)
                        for (engine, s, n), m in self.grid.items()
                        if s == skew and n == shards
                    ),
                )
                if ranked:
                    order = " < ".join(engine for _wa, engine in ranked)
                    notes.append(f"  skew={skew} shards={shards}: WA {order}")
        return (
            "Cluster crossover: Nemo vs FW/KG across shard counts "
            "and tenant skews\n"
            + table
            + "\nWA ordering per configuration:\n"
            + "\n".join(notes)
        )


def _cluster_cell(
    scale: str, engine: str, display: str, skew: str, alphas: tuple[float, ...], shards: int
) -> dict:
    """Replay one (engine, skew profile, shard count) cell (spawn-safe).

    The cluster replay is run with ``jobs=1``: cells themselves fan out
    across the experiment pool, and cluster metrics are byte-identical
    for any ``jobs``, so nesting worker pools would add cost for no
    signal.
    """
    num_requests, keys_per_tenant, _shard_counts, zones_per_shard = (
        _scale_params(scale)
    )
    specs = [
        TenantSpec(
            name=f"t{i + 1}",
            zipf_alpha=alpha,
            num_keys=keys_per_tenant,
        )
        for i, alpha in enumerate(alphas)
    ]
    trace = multi_tenant_trace(
        specs, num_requests=num_requests, name=f"mt-{skew}"
    )
    cluster = CacheCluster(
        ClusterConfig(
            num_shards=shards,
            engine=engine,
            zones_per_shard=zones_per_shard,
        )
    )
    result = cluster.replay(trace, jobs=1)
    return {
        "engine": display,
        "skew": skew,
        "shards": shards,
        "wa": result.wa,
        "miss": result.miss_ratio,
        "capacity": result.capacity_requests_per_sec,
    }


def cells(scale: str) -> list[Cell]:
    _reqs, _keys, shard_counts, _zones = _scale_params(scale)
    return [
        Cell(
            f"cluster/{engine}/{skew}/x{shards}",
            _cluster_cell,
            (scale, engine, display, skew, alphas, shards),
        )
        for engine, display in SYSTEMS
        for skew, alphas in SKEW_PROFILES
        for shards in shard_counts
    ]


def assemble(payloads: list[dict]) -> ClusterCrossoverResult:
    result = ClusterCrossoverResult()
    counts: list[int] = []
    for p in payloads:
        result.grid[(p["engine"], p["skew"], p["shards"])] = {
            "wa": p["wa"],
            "miss": p["miss"],
            "capacity": p["capacity"],
        }
        if p["shards"] not in counts:
            counts.append(p["shards"])
    result.shard_counts = tuple(sorted(counts))
    return result
