"""Deterministic 64-bit hashing shared by all cache engines.

Engines must agree on nothing except that each has *some* uniform hash;
still, a single well-tested primitive keeps behaviour reproducible across
runs and platforms (Python's builtin ``hash`` is salted per process).

``splitmix64`` is the standard 64-bit finaliser (Steele et al.); it is a
bijection on 64-bit integers with excellent avalanche behaviour, which is
exactly what set-associative placement needs.  Seeded variants
(:func:`hash64`) derive independent hash functions: each engine's
placement and the cluster router use their own seed.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 finalisation round of ``x`` (mod 2**64)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


#: Seeds repeat billions of times across a replay; memoise their mix.
_SEED_MIX: dict[int, int] = {}


def hash64(key: int, seed: int = 0) -> int:
    """Seeded 64-bit hash of integer ``key``.

    Different seeds give (empirically) independent hash functions.
    """
    mixed_seed = _SEED_MIX.get(seed)
    if mixed_seed is None:
        mixed_seed = _SEED_MIX[seed] = splitmix64(seed)
    return splitmix64((key & _MASK) ^ mixed_seed)


def splitmix64_array(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`hash64` over an integer array (uint64 result)."""
    z = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = z ^ np.uint64(splitmix64(seed))
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
