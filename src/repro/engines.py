"""The engine registry: what ``--engine kg`` means, defined once.

The CLI, the experiments' system runs and the cluster's shard workers
all build engines by *name* here.  Shard workers are spawned processes:
they receive a name and a parameter dict over the pipe and rebuild the
engine in-process (the engines hold numpy state and device objects that
are cheaper to reconstruct than to pickle).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from repro.baselines.base import CacheEngine
from repro.core.config import NemoConfig
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry

#: Registered engine names, in the paper's Figure 12 lineup order.
ENGINE_NAMES = ("nemo", "log", "set", "fw", "kg")


def shard_geometry(num_zones: int, *, page_size: int = 4096) -> FlashGeometry:
    """One shard's flash device: ``num_zones`` 1 MiB zones (the repo's
    standard 4-blocks-of-64-pages zone layout)."""
    return FlashGeometry(
        page_size=page_size,
        pages_per_block=64,
        num_blocks=num_zones * 4,
        blocks_per_zone=4,
    )


def make_engine(
    name: str, geometry: FlashGeometry, **params: Any
) -> CacheEngine:
    """Build a registered engine on ``geometry``.

    ``params`` forwards engine-specific knobs (for Nemo, any
    :class:`NemoConfig` field); unknown names raise so a typo cannot
    silently fall back to a default configuration.  Defaults match the
    paper's evaluation setup (Nemo's flush threshold 8, FW/KG's 5 % log
    with 5 % overprovisioning).
    """
    allowed = {
        "nemo": {f.name for f in fields(NemoConfig)},
        "log": set(),
        "set": {"op_ratio"},
        "fw": {"log_fraction", "op_ratio"},
        "kg": {"log_fraction", "op_ratio"},
    }
    known = allowed.get(name)
    if known is None:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
        )
    extra = sorted(set(params) - known)
    if extra:
        raise ConfigError(f"engine {name!r} does not accept {extra}")

    if name == "nemo":
        from repro.core.nemo import NemoCache

        return NemoCache(
            geometry,
            NemoConfig(
                **{
                    **params,
                    "flush_threshold": int(params.get("flush_threshold", 8)),
                    "sgs_per_index_group": int(params.get("sgs_per_index_group", 4)),
                    "cached_index_ratio": float(params.get("cached_index_ratio", 0.5)),
                }
            ),
        )
    if name == "log":
        from repro.baselines.log_structured import LogStructuredCache

        return LogStructuredCache(geometry)
    if name == "set":
        from repro.baselines.set_associative import SetAssociativeCache

        return SetAssociativeCache(
            geometry, op_ratio=float(params.get("op_ratio", 0.5))
        )
    if name == "fw":
        from repro.baselines.fairywren import FairyWrenCache

        return FairyWrenCache(
            geometry,
            log_fraction=float(params.get("log_fraction", 0.05)),
            op_ratio=float(params.get("op_ratio", 0.05)),
        )
    from repro.baselines.kangaroo import KangarooCache

    return KangarooCache(
        geometry,
        log_fraction=float(params.get("log_fraction", 0.05)),
        op_ratio=float(params.get("op_ratio", 0.05)),
    )
