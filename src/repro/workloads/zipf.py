"""Bulk Zipfian key sampling.

Twitter cache workloads are Zipfian with α ≈ 1.1–1.3 (Table 5; §5.1:
"α = 1 represents the classic 80/20 Pareto distribution").  The sampler
here draws millions of keys per second by building the CDF over the
(finite) key universe and inverting it with ``searchsorted`` on uniform
randoms — exact finite-N Zipf, not the rejection approximation of
``numpy.random.zipf`` (which models an unbounded support).

Peak rule: a draw holds at most one 8-byte-per-key array of the universe
(the CDF, released before the 4-byte-per-key permutation is built) plus
O(count); nothing universe-sized outlives the call.

Rank-to-key mapping: ranks are shuffled into key ids with a seeded
permutation so the hottest keys are scattered across the id space the
way hashed production keys are.  Engines hash keys anyway, but a
scattered mapping also keeps *unhashed* diagnostics (e.g. Fig. 19a's
set-access histogram) honest.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import TraceError


def _check(num_keys: int, alpha: float) -> None:
    if num_keys <= 0:
        raise TraceError("num_keys must be positive")
    if alpha < 0:
        raise TraceError("alpha must be non-negative")


def zipf_probabilities(num_keys: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(α) probabilities over ranks ``1..num_keys``.

    ``alpha=0`` degenerates to the uniform distribution.
    """
    _check(num_keys, alpha)
    # In place: one key-universe-sized array, no temporaries.
    weights = np.arange(1, num_keys + 1, dtype=np.float64)
    np.power(weights, -alpha, out=weights)
    weights /= weights.sum()
    return weights


def rank_dtype(num_keys: int) -> type[np.signedinteger[Any]]:
    """Dtype of the rank-to-key permutation: ``int32`` below 2**31 keys
    (4 B per key), ``int64`` from there on."""
    return np.int32 if num_keys < 2**31 else np.int64


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

    Memory: the generator keeps no key-universe-sized array between
    calls.  A draw builds the CDF (8 B per key), inverts it, releases it,
    and only then builds the rank-to-key permutation (4 B per key below
    2**31 keys), so it never holds more than one 8-byte-per-key array plus
    O(count).  Each call rebuilds both, so draw a large universe in one
    call.
    """

    def __init__(
        self,
        num_keys: int,
        alpha: float,
        *,
        seed: int = 0,
        shuffle: bool = True,
    ) -> None:
        _check(num_keys, alpha)
        self.num_keys = num_keys
        self.alpha = alpha
        self.seed = seed
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)

    def _cdf(self) -> np.ndarray:
        cdf = zipf_probabilities(self.num_keys, self.alpha)
        np.cumsum(cdf, out=cdf)
        # Guard against floating-point drift: force the last CDF bin to 1.
        cdf[-1] = 1.0
        return cdf

    def _rank_to_key(self) -> np.ndarray:
        # Equal to ``default_rng(...).permutation(num_keys)``, which
        # shuffles an int64 ``arange`` the same way, at half the bytes.
        perm = np.arange(self.num_keys, dtype=rank_dtype(self.num_keys))
        np.random.default_rng(self.seed ^ 0x5EED).shuffle(perm)
        return perm

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` key ids as an ``int64`` array."""
        if count < 0:
            raise TraceError("count must be non-negative")
        ranks = np.searchsorted(self._cdf(), self._rng.random(count), side="left")
        if not self.shuffle:
            return ranks.astype(np.int64, copy=False)
        return self._rank_to_key()[ranks].astype(np.int64)
