"""Bloom filters and their sizing math (§4.3).

Nemo replaces exact per-object indexing with per-set bloom filters whose
space cost depends only on the target false-positive rate, not the
member count (the fact §4.3 exploits to split SG-level filters into
set-level ones "without sacrificing space efficiency"):

- bits per object for false-positive rate ``x``:  ``-log2(x) / ln 2``
  ≈ 1.44·log2(1/x) — 14.4 bits at x = 0.1 % (the paper's Table 3 value);
- optimal hash count: ``k = -log2(x)`` ≈ 10 at 0.1 %.

:class:`BloomFilter` is a real, queryable filter over a Python-int bit
array using Kirsch–Mitzenmacher double hashing.  The Nemo engine uses
real filters when configured with ``use_real_filters=True`` (tests,
small-scale validation) and an exact-membership + statistical
false-positive model otherwise (large replays), both calibrated by the
same math here.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.hashing import hash_pair, hash_pair_array

LN2 = math.log(2.0)


def bloom_bits_per_object(false_positive_rate: float) -> float:
    """Optimal bits/object for a target false-positive rate.

    ``bloom_bits_per_object(0.001)`` ≈ 14.4 — the paper's figure; at
    1 % it is ≈ 9.6 (§4.1's "only 9.6 bits per object").
    """
    if not 0.0 < false_positive_rate < 1.0:
        raise ConfigError("false_positive_rate must be in (0, 1)")
    return -math.log2(false_positive_rate) / LN2


def bloom_num_hashes(false_positive_rate: float) -> int:
    """Optimal hash-function count for a target false-positive rate."""
    if not 0.0 < false_positive_rate < 1.0:
        raise ConfigError("false_positive_rate must be in (0, 1)")
    return max(1, round(-math.log2(false_positive_rate)))


def bloom_filter_bits(capacity: int, false_positive_rate: float) -> int:
    """Total filter size in bits for ``capacity`` expected members.

    The paper's instantiation: capacity 40, rate 0.1 % → 576 bits (72 B),
    "allowing 50 filters to fit in a single flash page".
    """
    if capacity <= 0:
        raise ConfigError("capacity must be positive")
    bits = math.ceil(capacity * bloom_bits_per_object(false_positive_rate))
    # Round up to whole bytes so filters pack cleanly into pages.
    return ((bits + 7) // 8) * 8


class BloomFilter:
    """A standard bloom filter with double hashing.

    Parameters
    ----------
    num_bits:
        Filter size (use :func:`bloom_filter_bits` to size it).
    num_hashes:
        Probe count (use :func:`bloom_num_hashes`).

    The bit array is one Python int, which keeps per-filter overhead tiny
    across the tens of thousands of set-level filters an SG pool holds.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "count")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ConfigError("num_bits must be positive")
        if num_hashes <= 0:
            raise ConfigError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0
        self.count = 0

    @classmethod
    def for_capacity(cls, capacity: int, false_positive_rate: float) -> "BloomFilter":
        """Filter sized for ``capacity`` members at the target rate."""
        return cls(
            bloom_filter_bits(capacity, false_positive_rate),
            bloom_num_hashes(false_positive_rate),
        )

    def _probes(self, key: int) -> Iterator[int]:
        h1, h2 = hash_pair(key)
        m = self.num_bits
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % m

    def add(self, key: int) -> None:
        for bit in self._probes(key):
            self._bits |= 1 << bit
        self.count += 1

    def add_many(self, keys: Iterable[int]) -> None:
        """Bulk :meth:`add`: identical bits and count, one inlined loop.

        The probe generator is unrolled with local bindings (the bit
        array, modulus and probe count), which matters when an SG flush
        populates tens of filters with dozens of keys each.
        """
        m = self.num_bits
        k = self.num_hashes
        bits = self._bits
        n = 0
        for key in keys:
            n += 1
            h1, h2 = hash_pair(key)
            for i in range(k):
                bits |= 1 << ((h1 + i * h2) % m)
        self._bits = bits
        self.count += n

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        for bit in self._probes(key):
            if not (bits >> bit) & 1:
                return False
        return True

    def contains_many(self, keys: Iterable[int]) -> list[bool]:
        """Bulk membership test: ``[key in self for key in keys]``."""
        m = self.num_bits
        k = self.num_hashes
        bits = self._bits
        out: list[bool] = []
        append = out.append
        for key in keys:
            h1, h2 = hash_pair(key)
            member = True
            for i in range(k):
                if not (bits >> ((h1 + i * h2) % m)) & 1:
                    member = False
                    break
            append(member)
        return out

    # ------------------------------------------------------------------
    # Array kernels (columnar replay lane, DESIGN.md §5)
    # ------------------------------------------------------------------
    def _probe_matrix(self, keys: np.ndarray) -> np.ndarray:
        """Probe bit positions per key, shape ``(len(keys), num_hashes)``.

        Bit-exact with the scalar ``(h1 + i*h2) % m`` probes: the scalar
        arithmetic runs in unbounded Python ints, so the uint64 form
        reduces both hashes mod ``m`` *before* the multiply —
        ``((h1 % m) + i*(h2 % m)) % m`` is congruent and cannot wrap 64
        bits (``num_hashes * m`` is far below 2**64 for any real filter).
        """
        h1, h2 = hash_pair_array(keys)
        m = np.uint64(self.num_bits)
        i = np.arange(self.num_hashes, dtype=np.uint64)
        return ((h1 % m)[:, None] + i[None, :] * (h2 % m)[:, None]) % m

    def add_array(self, keys: np.ndarray) -> None:
        """Vectorised :meth:`add_many` over an integer key column.

        Decision pass: one hash sweep marks every probed bit in a dense
        bitmap.  Mutation: a single integer OR folds the bitmap into the
        shared bit array — same bits and count as the scalar loop.
        """
        if len(keys) == 0:
            return
        bitmap = np.zeros(self.num_bits, dtype=bool)
        bitmap[self._probe_matrix(keys).ravel()] = True
        packed = np.packbits(bitmap, bitorder="little").tobytes()
        self._bits |= int.from_bytes(packed, "little")
        self.count += len(keys)

    def clear(self) -> None:
        self._bits = 0
        self.count = 0

    @property
    def size_bytes(self) -> int:
        return self.num_bits // 8

    def fill_fraction(self) -> float:
        """Fraction of bits set (predicts the realised FP rate)."""
        return bin(self._bits).count("1") / self.num_bits

    def expected_fp_rate(self) -> float:
        """Predicted false-positive probability at the current load."""
        return self.fill_fraction() ** self.num_hashes

    def to_bytes(self) -> bytes:
        """Serialise the bit array (what the on-flash index pool holds)."""
        return self._bits.to_bytes(self.size_bytes, "little")

    @classmethod
    def from_bytes(cls, data: bytes, num_hashes: int) -> "BloomFilter":
        bf = cls(len(data) * 8, num_hashes)
        bf._bits = int.from_bytes(data, "little")
        return bf
