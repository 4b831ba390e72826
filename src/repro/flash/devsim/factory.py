"""Latency-lane registry: construct a model for a named lane.

The replay harness, CLIs, and experiments select device timing models
by name — ``"analytic"`` (the default per-channel horizon model, with
its byte-identity contract and benchmark floors) or ``"event"`` (the
discrete-event lane).  ``make_latency_model`` is the one constructor
they all share.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.flash.devsim.model import EventLatencyModel
from repro.flash.latency import LatencyModel, NandTimings

#: Valid lane names, analytic first (the default lane).
LATENCY_LANES = ("analytic", "event")


def make_latency_model(
    lane: str,
    *,
    num_channels: int = 8,
    timings: NandTimings | None = None,
    read_cache_pages: int = 64,
) -> LatencyModel:
    """Build a fresh latency model for ``lane``."""
    if lane not in LATENCY_LANES:
        raise ConfigError(
            f"unknown latency lane {lane!r}; expected one of {LATENCY_LANES}"
        )
    model = EventLatencyModel if lane == "event" else LatencyModel
    return model(
        num_channels=num_channels,
        timings=NandTimings() if timings is None else timings,
        read_cache_pages=read_cache_pages,
    )
