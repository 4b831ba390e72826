"""The engine registry: what ``--engine kg`` means, defined once.

The CLI, the experiments, the examples and the cluster's shard workers
all build engines by *name* here, on the device :func:`geometry`
describes.  Shard workers are spawned processes: they receive a name
and a parameter dict over the pipe and rebuild the engine in-process
(the engines hold numpy state and device objects that are cheaper to
reconstruct than to pickle).
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


def geometry(num_zones: int) -> FlashGeometry:
    """The repo's one device shape: ``num_zones`` 1 MiB zones, each four
    erase blocks of 64 four-KiB pages (256 sets per Nemo SG)."""
    return FlashGeometry(
        page_size=4096,
        pages_per_block=64,
        num_blocks=num_zones * 4,
        blocks_per_zone=4,
    )


def make_engine(
    name: str, geometry: FlashGeometry, **params: Any
) -> CacheEngine:
    """Build a registered engine on ``geometry``.

    ``params`` go straight to the engine's constructor (for Nemo, to
    :class:`NemoConfig`); unknown names raise so a typo cannot silently
    fall back to a default configuration.  The constructors' defaults
    are the paper's evaluation setup (Table 4, with Nemo's rescaled
    p_th).  Attach a device timing model with
    :meth:`~repro.baselines.base.CacheEngine.install_latency_model`.
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

        return NemoCache(geometry, NemoConfig(**params))
    if name == "log":
        from repro.baselines.log_structured import LogStructuredCache

        return LogStructuredCache(geometry)
    if name == "set":
        from repro.baselines.set_associative import SetAssociativeCache

        return SetAssociativeCache(geometry, **params)
    if name == "fw":
        from repro.baselines.fairywren import FairyWrenCache

        return FairyWrenCache(geometry, **params)
    from repro.baselines.kangaroo import KangarooCache

    return KangarooCache(geometry, **params)
