"""Bulk Zipfian key sampling.

Twitter cache workloads are Zipfian with α ≈ 1.1–1.3 (Table 5; §5.1:
"α = 1 represents the classic 80/20 Pareto distribution").  The sampler
here draws millions of keys per second by building the CDF over the
(finite) key universe and inverting it with ``searchsorted`` on uniform
randoms — exact finite-N Zipf, not the rejection approximation of
``numpy.random.zipf`` (which models an unbounded support).

Peak rule: the one universe-sized array a draw holds is the 4-byte-per-key
rank-to-key permutation (Fisher–Yates needs it whole).  The CDF is built
and inverted one block of :data:`BLOCK_KEYS` keys at a time, so beyond
the permutation a draw holds O(block) + O(count); nothing universe-sized
outlives the call.  The blocked CDF is bit for bit the whole-array one:
the normaliser repeats ``np.add.reduce``'s pairwise summation order
(:func:`zipf_normaliser`) and ``np.cumsum`` carries across blocks.

Rank-to-key mapping: ranks are shuffled into key ids with a seeded
permutation so the hottest keys are scattered across the id space the
way hashed production keys are.  Engines hash keys anyway, but a
scattered mapping also keeps *unhashed* diagnostics (e.g. Fig. 19a's
set-access histogram) honest.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.errors import TraceError

#: Keys per block of the blocked CDF (here) and size-table draws
#: (:meth:`~repro.workloads.sizes.SizeModel.sizes_of`): 512 KiB of
#: ``float64``.
BLOCK_SHIFT = 16
BLOCK_KEYS = 1 << BLOCK_SHIFT


def _check(num_keys: int, alpha: float) -> None:
    if num_keys <= 0:
        raise TraceError("num_keys must be positive")
    if alpha < 0:
        raise TraceError("alpha must be non-negative")


def _weights(lo: int, hi: int, alpha: float) -> np.ndarray:
    """Unnormalised weights ``rank ** -alpha`` of ranks ``lo+1..hi``."""
    weights = np.arange(lo + 1, hi + 1, dtype=np.float64)
    np.power(weights, -alpha, out=weights)
    return weights


def zipf_probabilities(num_keys: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(α) probabilities over ranks ``1..num_keys``.

    ``alpha=0`` degenerates to the uniform distribution.
    """
    _check(num_keys, alpha)
    weights = _weights(0, num_keys, alpha)
    weights /= weights.sum()
    return weights


def zipf_normaliser(num_keys: int, alpha: float) -> float:
    """``_weights(0, num_keys, alpha).sum()`` bit for bit, holding one
    block of weights at a time.

    ``np.add.reduce`` sums a contiguous ``float64`` array pairwise: it
    splits a range at ``n2 = n//2 - (n//2) % 8`` until the pieces are
    small.  This splits the same way down to pieces of at most one
    block and sums each with ``np.sum``, which continues the same
    recursion inside it, so the rounding is the same.
    """

    def total(lo: int, hi: int) -> float:
        if hi - lo <= BLOCK_KEYS:
            return float(np.sum(_weights(lo, hi, alpha)))
        half = (hi - lo) // 2
        half -= half % 8
        return total(lo, lo + half) + total(lo + half, hi)

    _check(num_keys, alpha)
    return total(0, num_keys)


def zipf_cdf_blocks(
    num_keys: int, alpha: float
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, cdf[lo:lo + BLOCK_KEYS])`` of the Zipf CDF over ranks
    ``1..num_keys``, bit for bit ``np.cumsum(zipf_probabilities(...))``
    with the last bin forced to 1.0.

    Each block is normalised, takes the previous block's last CDF value
    into its first element and runs ``np.cumsum`` in place, which is the
    whole-array cumsum's sequence of additions.
    """
    total = zipf_normaliser(num_keys, alpha)
    carry = 0.0
    for lo in range(0, num_keys, BLOCK_KEYS):
        hi = min(lo + BLOCK_KEYS, num_keys)
        cdf = _weights(lo, hi, alpha)
        cdf /= total
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        if hi == num_keys:
            # Guard against floating-point drift: the last bin is 1.
            cdf[-1] = 1.0
        carry = float(cdf[-1])
        yield lo, cdf


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
    calls.  A draw inverts the CDF one block at a time (:meth:`_ranks`)
    and then builds the rank-to-key permutation (4 B per key below 2**31
    keys), so it never holds more than that permutation plus O(block)
    and O(count).  Each call rebuilds both, so draw a large universe in
    one call.
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

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, side="left")`` against the whole-universe
        CDF, one block of it at a time (:func:`zipf_cdf_blocks`).

        A draw resolves in the block whose CDF first reaches it.  The
        first block holds most of the mass (93–98 % on every Table 5
        cluster), so one ``searchsorted`` resolves most draws; only the
        rest are sorted, and later blocks resolve them in order until
        none is left.
        """
        blocks = zipf_cdf_blocks(self.num_keys, self.alpha)
        _, cdf = next(blocks)
        ranks = np.searchsorted(cdf, u, side="left")
        pending = np.flatnonzero(ranks == len(cdf))
        pending = pending[np.argsort(u[pending])]
        pending_u = u[pending]
        done = 0
        # The last block ends at 1.0 > u, so the walk ends by then.
        while done < len(pending):
            lo, cdf = next(blocks)
            stop = int(np.searchsorted(pending_u, cdf[-1], side="right"))
            ranks[pending[done:stop]] = lo + np.searchsorted(
                cdf, pending_u[done:stop], side="left"
            )
            done = stop
        return ranks

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
        ranks = self._ranks(self._rng.random(count))
        if not self.shuffle:
            return ranks.astype(np.int64, copy=False)
        return self._rank_to_key()[ranks].astype(np.int64)
