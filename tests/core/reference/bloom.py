"""A real, queryable Bloom filter: the oracle for Nemo's statistical index.

The engine resolves membership exactly and draws false positives at the
configured rate; this filter is what those draws stand in for.  It is
sized by the library's own math (``bloom_filter_bits`` /
``bloom_num_hashes``) and probes with ``num_hashes`` independent seeded
hashes, ``hash64(key, SEED + i) % num_bits``, so its false-positive rate
is the textbook (1 − e^{−kn/m})^k.  Double hashing, ``(h1 + i·h2) % m``,
revisits bits whenever gcd(h2, m) > 1, and the sizing math gives m =
2⁵·9 or 2⁶·9 bits at capacities 20 and 40: it measured 0.75 % / 0.40 %
false positives at 0.1 % target.  The bit array is one Python int.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.bloom import bloom_filter_bits, bloom_num_hashes
from repro.errors import ConfigError
from repro.hashing import hash64

#: Probe ``i`` hashes with seed ``SEED + i``.
SEED = 0x9E37


class BloomFilter:
    """``num_bits`` bits probed ``num_hashes`` times per key."""

    __slots__ = ("num_bits", "num_hashes", "_bits")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ConfigError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0

    @classmethod
    def for_capacity(cls, capacity: int, false_positive_rate: float) -> BloomFilter:
        """Filter sized for ``capacity`` members at the target rate."""
        return cls(
            bloom_filter_bits(capacity, false_positive_rate),
            bloom_num_hashes(false_positive_rate),
        )

    def _probes(self, key: int) -> Iterator[int]:
        """The key's bit positions, lazily: a miss stops at its first
        clear bit."""
        m = self.num_bits
        return (hash64(key, SEED + i) % m for i in range(self.num_hashes))

    def add(self, key: int) -> None:
        for bit in self._probes(key):
            self._bits |= 1 << bit

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        return all((bits >> bit) & 1 for bit in self._probes(key))
