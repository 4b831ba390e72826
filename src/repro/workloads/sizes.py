"""Per-key object-size models.

Sizes are assigned per *key*, not per request: the generators draw one
size table over the key universe and index it with sampled keys
(:meth:`SizeModel.sizes_of`), so a key always presents the same object
size (a property every cache engine here relies on when accounting
bytes).

Two models cover the paper's needs:

- :class:`NormalSizeModel` — the paper's synthetic workload for Fig. 8:
  "data sizes following a normal distribution, mean = 250 B,
  std = 200 B", truncated to a sane minimum.
- :class:`LogNormalSizeModel` — right-skewed sizes typical of production
  value-size distributions; used by the Twitter cluster generators with
  the cluster's mean value size.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import TraceError
from repro.workloads.zipf import BLOCK_KEYS, BLOCK_SHIFT


class SizeModel(abc.ABC):
    """Deterministic per-key size table factory.

    Peak rule: :meth:`sizes_of` never holds the table whole.  It draws it
    one block of :data:`~repro.workloads.zipf.BLOCK_KEYS` keys at a time
    and keeps only the sampled keys' sizes, so it holds O(block) +
    O(len(keys)).
    """

    #: Smallest size a table holds; draws below it are raised to it.
    minimum: int

    @abc.abstractmethod
    def _draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` raw ``float64`` sizes, the next draws from ``rng``."""

    def _finish(self, sizes: np.ndarray) -> np.ndarray:
        """Round raw sizes, raise them to the minimum and cast to ``int64``."""
        np.rint(sizes, out=sizes)
        np.maximum(sizes, self.minimum, out=sizes)
        return sizes.astype(np.int64)

    def build_table(self, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        """Return an ``int64`` array of per-key object sizes."""
        return self._finish(self._draw(num_keys, rng))

    def sizes_of(
        self, keys: np.ndarray, num_keys: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``build_table(num_keys, rng)[keys]``, leaving ``rng`` in the same
        state, one block of the table at a time.

        ``rng`` draws the table's blocks in order, the same stream as one
        whole-table draw.  The keys are grouped by block with a stable
        radix argsort of their block numbers; rounding, the minimum and
        the cast are elementwise, so they run on the gathered sizes only.
        """
        if len(keys) and (keys.min() < 0 or keys.max() >= num_keys):
            raise TraceError(f"keys must lie in [0, {num_keys})")
        num_blocks = -(-num_keys // BLOCK_KEYS)
        blocks = keys >> BLOCK_SHIFT
        if num_blocks <= 1 << 16:
            blocks = blocks.astype(np.uint16)
        order = np.argsort(blocks, kind="stable")
        ends = np.searchsorted(
            blocks,
            np.arange(num_blocks, dtype=blocks.dtype),
            side="right",
            sorter=order,
        )
        del blocks
        sizes = np.empty(len(keys), dtype=np.float64)
        start = 0
        for block, stop in enumerate(ends.tolist()):
            lo = block * BLOCK_KEYS
            table = self._draw(min(BLOCK_KEYS, num_keys - lo), rng)
            picked = order[start:stop]
            sizes[picked] = table[keys[picked] - lo]
            start = stop
        return self._finish(sizes)

    @property
    @abc.abstractmethod
    def mean_size(self) -> float:
        """Expected object size in bytes."""


class NormalSizeModel(SizeModel):
    """Truncated-normal object sizes (paper's Fig. 8 synthetic workload)."""

    def __init__(self, mean: float = 250.0, std: float = 200.0, minimum: int = 16) -> None:
        if mean <= 0 or std < 0:
            raise TraceError("mean must be positive and std non-negative")
        if minimum <= 0:
            raise TraceError("minimum must be positive")
        self.mean = mean
        self.std = std
        self.minimum = minimum

    def _draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=count)

    @property
    def mean_size(self) -> float:
        # Truncation pulls the mean up slightly; for the paper's
        # parameters (250/200, min 16) the shift is ~6 %, which we accept
        # as the paper itself reports the untruncated parameters.
        return float(self.mean)


class LogNormalSizeModel(SizeModel):
    """Right-skewed sizes with a target mean (production-like values).

    Parameterised by the desired mean and a shape ``sigma`` (log-space
    std).  The log-space location is solved so the distribution's mean
    equals ``mean``: for lognormal, E = exp(mu + sigma^2/2).
    """

    def __init__(self, mean: float, sigma: float = 0.5, minimum: int = 16) -> None:
        if mean <= 0:
            raise TraceError("mean must be positive")
        if sigma < 0:
            raise TraceError("sigma must be non-negative")
        if minimum <= 0:
            raise TraceError("minimum must be positive")
        self.mean = mean
        self.sigma = sigma
        self.minimum = minimum
        self._mu = np.log(mean) - sigma * sigma / 2.0

    def _draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(self._mu, self.sigma, size=count)

    @property
    def mean_size(self) -> float:
        return float(self.mean)
