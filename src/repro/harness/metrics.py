"""Metric time series collected during replay.

Two small containers the runner and experiments share:

- :class:`MetricSeries` — (x, value) samples of any scalar metric;
- :class:`WindowedRate` — converts a monotonically increasing counter
  into a per-fixed-window rate series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass
class MetricSeries:
    """Sampled scalar metric: parallel ``xs`` / ``values`` lists."""

    name: str
    xs: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, x: float, value: float) -> None:
        if self.xs and x < self.xs[-1]:
            raise ConfigError("samples must be recorded in x order")
        self.xs.append(x)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.xs)

    def as_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.values))


class WindowedRate:
    """Turn a monotonic counter into per-window rates.

    Feed ``update(t, counter_value)``; completed windows appear in
    :attr:`rates` as ``(window_end_t, delta_per_window)``.  Used for
    "flash writes per minute" (Fig. 13): t is simulated seconds and the
    counter is ``stats.host_write_bytes``.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ConfigError("window must be positive")
        self.window = window
        self.rates: list[tuple[float, float]] = []
        self._window_start_t: float | None = None
        self._window_start_v = 0.0
        self._last_v = 0.0

    def update(self, t: float, value: float) -> None:
        if self._window_start_t is None:
            self._window_start_t = t
            self._window_start_v = value
        self._last_v = value
        while t - self._window_start_t >= self.window:
            end = self._window_start_t + self.window
            self.rates.append((end, value - self._window_start_v))
            self._window_start_t = end
            self._window_start_v = value

    def finish(self, t: float) -> None:
        """Close the trailing partial window (scaled to a full window)."""
        if self._window_start_t is None:
            return
        span = t - self._window_start_t
        if span > 0:
            delta = (self._last_v - self._window_start_v) * (self.window / span)
            self.rates.append((t, delta))
        self._window_start_t = None
