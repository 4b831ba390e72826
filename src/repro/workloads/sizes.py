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


class SizeModel(abc.ABC):
    """Deterministic per-key size table factory."""

    @abc.abstractmethod
    def _draw(self, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        """The per-key sizes as a ``float64`` array of whole numbers."""

    def build_table(self, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        """Return an ``int64`` array of per-key object sizes."""
        return self._draw(num_keys, rng).astype(np.int64)

    def sizes_of(
        self, keys: np.ndarray, num_keys: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``build_table(num_keys, rng)[keys]``, leaving ``rng`` in the same
        state, while holding one 8-byte-per-key array instead of two: only
        the sampled keys' sizes are converted to ``int64``."""
        return self._draw(num_keys, rng)[keys].astype(np.int64)

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

    def _draw(self, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        sizes = rng.normal(self.mean, self.std, size=num_keys)
        np.rint(sizes, out=sizes)
        np.maximum(sizes, self.minimum, out=sizes)
        return sizes

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

    def _draw(self, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        sizes = rng.lognormal(self._mu, self.sigma, size=num_keys)
        np.rint(sizes, out=sizes)
        np.maximum(sizes, self.minimum, out=sizes)
        return sizes

    @property
    def mean_size(self) -> float:
        return float(self.mean)
