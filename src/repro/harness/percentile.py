"""Latency percentile tracking.

:class:`LatencyRecorder` stores every sample and computes exact
percentiles (numpy).  That is fine at simulator scale (10⁵–10⁷ samples)
and keeps p9999 exact.  Samples live in one flat ``array('d')``, 8 B
each (a list of ``float`` objects costs 32), and numpy reads that
buffer in place through ``np.frombuffer``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from typing import Callable

import numpy as np


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
        #: (one C call, no Python frame per GET), so a caller may bind
        #: it once.
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
