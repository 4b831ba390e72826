"""Test oracles for Nemo's index: a real Bloom filter, an engine that
consults real per-set filters, and the plain scalar GET."""

from tests.core.reference.bloom import BloomFilter
from tests.core.reference.nemo import RealFilterNemo, reference_get

__all__ = ["BloomFilter", "RealFilterNemo", "reference_get"]
