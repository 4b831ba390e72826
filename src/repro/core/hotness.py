"""Hybrid hotness tracking (§4.4, Figure 11).

Nemo infers object hotness from two cheap signals:

- a **1-bit access counter** per object, kept only for objects in the
  *last* (oldest) ``window_fraction`` of the SG pool — objects far from
  eviction don't need a verdict yet, which cuts the bitmap to 0.3
  bits/object at the paper's 30 % window (Table 6's "Evict" row);
- the **index cache's recency**: an offset whose set-level PBFG page is
  currently cached has recently-active sets.

An object is "hot" — and survives eviction via writeback — only when
*both* hold: its bit is set and its offset's PBFG is cached.

Periodic **cooling** (every ``cooling_interval_fraction`` of the cache
capacity written) clears the bits of objects whose PBFG is no longer
cached, so "only recency-backed hotness is sustained" and an initial
burst (now cooled) cannot masquerade as long-term popularity.
"""

from __future__ import annotations

from array import array
from typing import Callable

import numpy as np

from repro.errors import ConfigError


class HotnessTracker:
    """1-bit access counters gated by PBFG cache recency.

    Parameters
    ----------
    window_fraction:
        Oldest fraction of the SG pool whose objects are tracked.
    page_idx_cached:
        ``page_idx -> bool`` — is any PBFG page covering this group-page
        index currently cached?  (Provided by the index cache.)
    page_of_offset:
        ``offset -> page_idx`` from the index layout.
    num_offsets:
        When given, the offset→page-index mapping is precomputed into a
        flat array so the hot-path verdicts (``is_hot``, ``cool``) index
        a table instead of calling ``page_of_offset``.
    """

    def __init__(
        self,
        window_fraction: float,
        *,
        page_idx_cached: Callable[[int], bool],
        page_of_offset: Callable[[int], int],
        num_offsets: int | None = None,
    ) -> None:
        if not 0.0 <= window_fraction <= 1.0:
            raise ConfigError("window_fraction must be in [0, 1]")
        self.window_fraction = window_fraction
        self._page_idx_cached = page_idx_cached
        self._page_of_offset = page_of_offset
        self._offset_page: array[int] | None = (
            array("q", [page_of_offset(o) for o in range(num_offsets)])
            if num_offsets is not None
            else None
        )
        #: key -> intra-SG offset (the "set bit"); storing the offset
        #: makes cooling a pure bitmap sweep without re-hashing.
        self._bits: dict[int, int] = {}
        self.coolings = 0
        self.bits_cleared = 0

    # ------------------------------------------------------------------
    def record_access(self, key: int, offset: int, *, in_window: bool) -> None:
        """Mark ``key`` accessed; only tracked inside the window."""
        if in_window:
            self._bits[key] = offset

    def is_hot(self, key: int) -> bool:
        """Hybrid verdict: bit set *and* the offset's PBFG is cached."""
        offset = self._bits.get(key)
        if offset is None:
            return False
        table = self._offset_page
        page_idx = (
            table[offset] if table is not None else self._page_of_offset(offset)
        )
        return self._page_idx_cached(page_idx)

    # ------------------------------------------------------------------
    # Array kernels (columnar replay lane, DESIGN.md §5)
    # ------------------------------------------------------------------
    def record_access_array(
        self, keys: np.ndarray, offsets: np.ndarray, in_window: np.ndarray
    ) -> None:
        """Bulk :meth:`record_access` over parallel columns.

        ``in_window`` is the per-key boolean tracking gate.  The bitmap
        mutation is one ordered dict update, so a key appearing twice in
        the batch keeps its *last* offset — same as the scalar loop.
        """
        tracked = keys[in_window]
        if len(tracked):
            self._bits.update(zip(tracked.tolist(), offsets[in_window].tolist()))

    def discard(self, key: int) -> None:
        self._bits.pop(key, None)

    def cool(self) -> int:
        """One cooling pass: clear bits without a cached PBFG (Fig. 11).

        Returns the number of bits cleared.
        """
        self.coolings += 1
        cached = self._page_idx_cached
        table = self._offset_page
        if table is not None:
            survivors = {
                key: offset
                for key, offset in self._bits.items()
                if cached(table[offset])
            }
        else:
            page_of = self._page_of_offset
            survivors = {
                key: offset
                for key, offset in self._bits.items()
                if cached(page_of(offset))
            }
        cleared = len(self._bits) - len(survivors)
        self._bits = survivors
        self.bits_cleared += cleared
        return cleared

    # ------------------------------------------------------------------
    def tracked_count(self) -> int:
        return len(self._bits)

    def bits_per_object(self) -> float:
        """Amortised DRAM cost: 1 bit over the tracked window only."""
        return self.window_fraction
