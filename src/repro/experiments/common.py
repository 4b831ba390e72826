"""Shared experiment configuration: scales and traces.

Scale notes (also in DESIGN.md §2): the paper's 360 GB device and
billion-request replays are out of reach for a pure-Python simulator, so
experiments run on MiB-scale devices.  All §3 quantities are ratios
(N_Log/N_Set, OP, fill rates), so shapes survive; the absolute fill
rates shift because an SG here has hundreds of sets instead of 275,712
(extreme-value effects shrink with the set count — see
``analysis.fill_model``), which EXPERIMENTS.md quantifies per figure.

The Nemo flush threshold also rescales (p_th 8 instead of 4,096);
:class:`~repro.core.config.NemoConfig` states the evaluated tuning and
why, and the device shape is :func:`repro.engines.geometry`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.config import NemoConfig
from repro.engines import geometry
from repro.flash.geometry import FlashGeometry
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.trace import Trace


def standard_geometry() -> FlashGeometry:
    """24 MiB device: the EXPERIMENTS.md default."""
    return geometry(24)


#: LRU-bounded: ``python -m repro.experiments all`` touches many
#: (num_requests, wss_scale, seed) combinations and a full-scale trace
#: is tens of MB of numpy arrays; keep only the most recent few.
_TRACE_CACHE: OrderedDict[tuple, Trace] = OrderedDict()
_TRACE_CACHE_MAX = 4


def twitter_trace(
    num_requests: int, *, wss_scale: float = 1.0 / 128, seed: int = 0
) -> Trace:
    """Memoised merged Twitter trace (experiments share identical input)."""
    key = (num_requests, wss_scale, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = merged_twitter_trace(
            num_requests=num_requests, wss_scale=wss_scale, seed=seed
        )
        _TRACE_CACHE[key] = trace
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


def scale_params(scale: str) -> tuple[FlashGeometry, int]:
    """(geometry, num_requests) for a named scale.

    ``micro`` exists for the test suite (sub-second smoke runs);
    ``small`` is the seconds-per-experiment default; ``full`` produces
    the EXPERIMENTS.md numbers.
    """
    if scale == "micro":
        return geometry(8), 60_000
    if scale == "small":
        return geometry(12), 250_000
    if scale == "full":
        return standard_geometry(), 1_200_000
    raise ValueError(f"unknown scale {scale!r}; use 'micro', 'small' or 'full'")


#: The evaluated Nemo tuning is ``NemoConfig()``; the name stays
#: because ``benchmarks/e2e`` imports it.
nemo_config = NemoConfig
