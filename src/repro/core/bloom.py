"""Bloom-filter sizing math (§4.3).

Nemo replaces exact per-object indexing with per-set bloom filters whose
space cost depends only on the target false-positive rate, not the
member count (the fact §4.3 exploits to split SG-level filters into
set-level ones "without sacrificing space efficiency"):

- bits per object for false-positive rate ``x``:  ``-log2(x) / ln 2``
  ≈ 1.44·log2(1/x) — 14.4 bits at x = 0.1 % (the paper's Table 3 value);
- optimal hash count: ``k = -log2(x)`` ≈ 10 at 0.1 %.

The engine keeps no filter bits: it resolves membership exactly and
draws false positives at the configured rate, and these sizing helpers
give the index layout (``core/pbfg.py``), the memory accounting
(Table 6) and the Appendix A model their filter sizes.  The test suite
keeps a real, queryable filter as an oracle (``tests/core/reference``).
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

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
