"""Bulk Zipfian key sampling.

Twitter cache workloads are Zipfian with α ≈ 1.1–1.3 (Table 5; §5.1:
"α = 1 represents the classic 80/20 Pareto distribution").  The sampler
here draws millions of keys per second by precomputing the CDF over the
(finite) key universe and inverting it with ``searchsorted`` on uniform
randoms — exact finite-N Zipf, not the rejection approximation of
``numpy.random.zipf`` (which models an unbounded support).

Rank-to-key mapping: ranks are shuffled into key ids with a seeded
permutation so the hottest keys are scattered across the id space the
way hashed production keys are.  Engines hash keys anyway, but a
scattered mapping also keeps *unhashed* diagnostics (e.g. Fig. 19a's
set-access histogram) honest.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError


def zipf_probabilities(num_keys: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(α) probabilities over ranks ``1..num_keys``.

    ``alpha=0`` degenerates to the uniform distribution.
    """
    if num_keys <= 0:
        raise TraceError("num_keys must be positive")
    if alpha < 0:
        raise TraceError("alpha must be non-negative")
    # In place: one key-universe-sized array, no temporaries.
    weights = np.arange(1, num_keys + 1, dtype=np.float64)
    np.power(weights, -alpha, out=weights)
    weights /= weights.sum()
    return weights


class ZipfGenerator:
    """Seeded bulk sampler of Zipf-distributed key ids.

    Parameters
    ----------
    num_keys:
        Key-universe size.
    alpha:
        Zipf skew parameter.
    seed:
        RNG seed; two generators with equal parameters produce identical
        streams.
    shuffle:
        When True (default), rank *r* maps to a pseudo-random key id
        instead of ``r-1``.
    """

    def __init__(
        self,
        num_keys: int,
        alpha: float,
        *,
        seed: int = 0,
        shuffle: bool = True,
    ) -> None:
        self.num_keys = num_keys
        self.alpha = alpha
        self._rng = np.random.default_rng(seed)
        self._cdf = np.cumsum(zipf_probabilities(num_keys, alpha))
        # Guard against floating-point drift: force the last CDF bin to 1.
        self._cdf[-1] = 1.0
        if shuffle:
            perm_rng = np.random.default_rng(seed ^ 0x5EED)
            self._rank_to_key = perm_rng.permutation(num_keys)
        else:
            self._rank_to_key = None

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` key ids as an ``int64`` array."""
        if count < 0:
            raise TraceError("count must be non-negative")
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        if self._rank_to_key is not None:
            return self._rank_to_key[ranks].astype(np.int64)
        return ranks.astype(np.int64)

    def rank_of_key(self, key: int) -> int:
        """Popularity rank (0 = hottest) of ``key``; O(num_keys) scan."""
        if self._rank_to_key is None:
            return int(key)
        matches = np.nonzero(self._rank_to_key == key)[0]
        if matches.size == 0:
            raise TraceError(f"key {key} is not in the universe")
        return int(matches[0])

    def expected_top_share(self, top_fraction: float) -> float:
        """Expected request share captured by the hottest ``top_fraction``
        of keys — e.g. ≈0.8 at ``top_fraction=0.2`` for α≈1 (the 80/20
        rule the paper cites)."""
        if not 0.0 < top_fraction <= 1.0:
            raise TraceError("top_fraction must be in (0, 1]")
        k = max(1, int(round(self.num_keys * top_fraction)))
        return float(self._cdf[k - 1])
