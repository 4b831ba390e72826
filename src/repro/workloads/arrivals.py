"""Seeded arrival processes for the event-driven device lane.

The devsim device lane (:mod:`repro.flash.devsim`) is RNG-free by
design, so all arrival randomness is precomputed here, in the
workloads zone, as plain absolute-microsecond arrays from seeded
generators.  Identical seeds produce identical arrays, which is what
makes identical seeds produce identical *event sequences* downstream.

Three processes:

- :func:`fixed_arrivals` — the open-loop clock the batched replay lane
  uses implicitly (one request every ``1e6 / rate`` µs).
- :func:`poisson_arrivals` — exponential inter-arrival gaps at a mean
  rate (memoryless open-loop load).
- :func:`bursty_arrivals` — a two-state modulated Poisson process:
  geometric-length bursts arrive at ``burst_factor ×`` the base rate,
  separated by idle stretches rescaled so the *mean* rate stays at
  ``rate_rps``.  This is the closed-loop stressor behind the
  ``fig15_tail`` experiment: bursts exceed device service capacity and
  expose queueing tails that a fixed-gap clock can never produce.

Plus :func:`assign_classes`, a seeded per-request priority-class draw
for the frontend scheduler's QoS tiers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def _validate(num_requests: int, rate_rps: float) -> None:
    if num_requests < 0:
        raise ConfigError("num_requests must be non-negative")
    if rate_rps <= 0:
        raise ConfigError("rate_rps must be positive")


def fixed_arrivals(num_requests: int, rate_rps: float) -> np.ndarray:
    """Evenly spaced arrivals: request i at ``i * 1e6 / rate_rps`` µs."""
    _validate(num_requests, rate_rps)
    step_us = 1e6 / rate_rps
    return np.arange(num_requests, dtype=np.float64) * step_us


def poisson_arrivals(
    num_requests: int, rate_rps: float, *, seed: int = 0
) -> np.ndarray:
    """Poisson arrivals: i.i.d. exponential gaps with mean ``1/rate``."""
    _validate(num_requests, rate_rps)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1e6 / rate_rps, size=num_requests)
    out: np.ndarray = np.cumsum(gaps)
    return out


def bursty_arrivals(
    num_requests: int,
    rate_rps: float,
    *,
    seed: int = 0,
    burst_factor: float = 8.0,
    mean_burst: int = 64,
    burst_fraction: float = 0.5,
) -> np.ndarray:
    """Two-state bursty arrivals with overall mean rate ``rate_rps``.

    Requests come in geometric-length bursts (mean ``mean_burst``
    requests) whose internal gaps are exponential at
    ``burst_factor * rate_rps``.  ``burst_fraction`` of all requests
    belong to bursts; the rest form the idle stretches between them,
    with gaps rescaled so the whole trace still averages ``rate_rps``.
    With the defaults, half the traffic arrives 8× faster than the
    device-sized mean — transient overload, the paper's tail regime.
    """
    _validate(num_requests, rate_rps)
    if burst_factor <= 1.0:
        raise ConfigError("burst_factor must exceed 1 (else use poisson_arrivals)")
    if not 0.0 < burst_fraction < 1.0:
        raise ConfigError("burst_fraction must be in (0, 1)")
    if mean_burst <= 0:
        raise ConfigError("mean_burst must be positive")
    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_rps
    burst_gap_us = mean_gap_us / burst_factor
    # Mean-rate preservation: fraction f of gaps at mean g_b, the rest
    # at g_i, with f*g_b + (1-f)*g_i == mean_gap.
    idle_gap_us = (mean_gap_us - burst_fraction * burst_gap_us) / (
        1.0 - burst_fraction
    )
    in_burst = np.zeros(num_requests, dtype=bool)
    pos = 0
    while pos < num_requests:
        burst_len = 1 + int(rng.geometric(1.0 / mean_burst))
        idle_len = max(
            1, round(burst_len * (1.0 - burst_fraction) / burst_fraction)
        )
        in_burst[pos : pos + burst_len] = True
        pos += burst_len + idle_len
    gaps = rng.exponential(scale=1.0, size=num_requests)
    gaps *= np.where(in_burst, burst_gap_us, idle_gap_us)
    out: np.ndarray = np.cumsum(gaps)
    return out


def assign_classes(
    num_requests: int, shares: tuple[float, ...], *, seed: int = 0
) -> np.ndarray:
    """Seeded i.i.d. priority-class ids drawn with the given shares.

    Class 0 is the highest-priority tier (the frontend scheduler issues
    lower ids first when a queue-depth slot frees).
    """
    if num_requests < 0:
        raise ConfigError("num_requests must be non-negative")
    if not shares:
        raise ConfigError("need at least one class share")
    weights = np.asarray(shares, dtype=np.float64)
    if (weights <= 0).any():
        raise ConfigError("class shares must be positive")
    rng = np.random.default_rng(seed)
    out: np.ndarray = rng.choice(
        len(shares), size=num_requests, p=weights / weights.sum()
    )
    return out.astype(np.int64)
