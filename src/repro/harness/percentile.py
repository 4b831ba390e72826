"""Latency percentile tracking.

Two implementations with different trade-offs:

- :class:`LatencyRecorder` — stores every sample and computes exact
  percentiles (numpy).  Fine at simulator scale (10⁵–10⁷ samples) and
  used by the replay harness so p9999 is exact.  Samples live in one
  flat ``array('d')``, 8 B each (a list of ``float`` objects costs 32), and
  numpy reads that buffer in place through ``np.frombuffer``.
- :class:`StreamingQuantile` — the P² algorithm (Jain & Chlamtac 1985):
  O(1) memory single-quantile estimation, for callers embedding the
  harness in long-running loops.  Property-tested against numpy.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from typing import Callable

import numpy as np

from repro.errors import ConfigError


class LatencyRecorder:
    """Exact percentile tracking over recorded samples.

    Also supports *windowed* percentiles: :meth:`mark_window` closes the
    current window so "before flash full" / "after flash full" tails
    (paper Fig. 15) can be compared.
    """

    def __init__(self) -> None:
        self._values: array[float] = array("d")
        self._window_bounds: list[int] = [0]
        #: Append one sample.  It is the buffer's own bound ``append``
        #: (one C call, no Python frame per GET); :meth:`merge` refills
        #: the buffer in place, so a caller may bind it once.
        self.record: Callable[[float], None] = self._values.append

    def record_many(self, values: Iterable[float]) -> None:
        """Append a run of samples in order (bulk-lane fast path).

        Equivalent to calling :meth:`record` once per element; the
        columnar kernel uses it to settle a whole chunk's latencies in
        one C-level extend.
        """
        self._values.extend(values)

    def _samples(self) -> np.ndarray:
        """Every sample as a float64 view of the buffer (no copy).

        Callers drop the view before the next append: an ``array`` that
        exports its buffer cannot grow.
        """
        return np.frombuffer(self._values, dtype=np.float64)

    def merge(self, other: "LatencyRecorder") -> None:
        """Absorb ``other``'s samples *window-wise*.

        Sharded replays record each shard's latencies into a private
        recorder; merging window ``w`` of every shard into window ``w``
        of one recorder makes the merged per-window sample multisets
        equal to a serial replay's (percentiles are order-free within a
        window, so the merged percentiles are bit-for-bit identical —
        property-tested against numpy on the concatenated samples).
        Window counts may differ (a shard may not have reached the
        mark); missing windows merge as empty.
        """
        mine = self._window_bounds + [len(self._values)]
        theirs = other._window_bounds + [len(other._values)]
        n_windows = max(len(mine), len(theirs)) - 1
        values: array[float] = array("d")
        starts = [0]
        for w in range(n_windows):
            if w + 1 < len(mine):
                values.extend(self._values[mine[w] : mine[w + 1]])
            if w + 1 < len(theirs):
                values.extend(other._values[theirs[w] : theirs[w + 1]])
            starts.append(len(values))
        self._values[:] = values  # in place: a bound ``record`` stays valid
        self._window_bounds = starts[:-1]

    def __len__(self) -> int:
        return len(self._values)

    def mark_window(self) -> None:
        """Close the current window at the present sample count."""
        self._window_bounds.append(len(self._values))

    def percentile(self, q: float) -> float:
        """Exact percentile over all samples; q in [0, 100]."""
        if not self._values:
            return float("nan")
        return float(np.percentile(self._samples(), q))

    def percentiles(self, qs: list[float]) -> dict[float, float]:
        if not self._values:
            return {q: float("nan") for q in qs}
        return {q: float(v) for q, v in zip(qs, np.percentile(self._samples(), qs))}

    def window_percentiles(self, qs: list[float]) -> list[dict[float, float]]:
        """Per-window percentiles (windows delimited by mark_window)."""
        bounds = self._window_bounds + [len(self._values)]
        samples = self._samples()
        out: list[dict[float, float]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                chunk = np.percentile(samples[lo:hi], qs)
                out.append({q: float(v) for q, v in zip(qs, chunk)})
            else:
                out.append({q: float("nan") for q in qs})
        return out

    def mean(self) -> float:
        if not self._values:
            return float("nan")
        return float(np.mean(self._samples()))


class StreamingQuantile:
    """P² single-quantile estimator with five markers, O(1) memory."""

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigError("q must be in (0, 1)")
        self.q = q
        self._initial: list[float] = []
        # Marker heights, positions, and desired positions.
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                    3.0 + 2.0 * self.q,
                    5.0,
                ]
            return

        h, pos = self._heights, self._positions
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        # Adjust the three middle markers.
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if self.count == 0:
            return float("nan")
        if len(self._initial) < 5 or not self._heights:
            ordered = sorted(self._initial)
            idx = min(len(ordered) - 1, int(self.q * len(ordered)))
            return ordered[idx]
        return self._heights[2]
