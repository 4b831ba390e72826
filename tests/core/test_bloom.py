"""Unit + property tests for the bloom-filter sizing math and the real
filter the test suite keeps as the oracle of Nemo's index."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import (
    bloom_bits_per_object,
    bloom_filter_bits,
    bloom_num_hashes,
)
from repro.errors import ConfigError
from tests.core.reference import BloomFilter


def fill_fraction(bf):
    """Fraction of the filter's bits set."""
    return bin(bf._bits).count("1") / bf.num_bits


class TestSizingMath:
    def test_paper_values(self):
        """Table 3 / §4.1: 14.4 b/obj at 0.1 %, 9.6 b/obj at 1 %."""
        assert bloom_bits_per_object(0.001) == pytest.approx(14.4, abs=0.05)
        assert bloom_bits_per_object(0.01) == pytest.approx(9.6, abs=0.05)

    def test_paper_filter_size(self):
        """§5.1: capacity 40 at 0.1 % → 576 bits (72 B)."""
        assert bloom_filter_bits(40, 0.001) == 576

    def test_hash_count(self):
        assert bloom_num_hashes(0.001) == 10
        assert bloom_num_hashes(0.01) == 7

    def test_tighter_rate_needs_more_bits(self):
        assert bloom_bits_per_object(0.0001) > bloom_bits_per_object(0.01)

    def test_invalid_rates_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                bloom_bits_per_object(bad)
            with pytest.raises(ConfigError):
                bloom_num_hashes(bad)

    def test_filter_bits_whole_bytes(self):
        assert bloom_filter_bits(10, 0.02) % 8 == 0


class TestFilterBehaviour:
    def test_no_false_negatives(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        for key in range(100):
            bf.add(key)
        for key in range(100):
            assert key in bf

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter.for_capacity(10, 0.01)
        assert not any(key in bf for key in range(1000))

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter.for_capacity(200, 0.01)
        for key in range(200):
            bf.add(key)
        false_hits = sum(1 for key in range(10_000, 40_000) if key in bf)
        assert false_hits / 30_000 < 0.03  # target 1 %, allow 3x head-room

    @pytest.mark.parametrize("capacity", [20, 40])
    def test_measured_rate_at_capacity_matches_the_sizing_math(self, capacity):
        """100 full filters × 2,000 non-member queries: the measured rate
        is within [0.6, 1.5] × (1 − e^{−kn/m})^k (≈ 0.1 %, ~200 expected
        hits, so each edge is > 5 σ away).  Probes that revisit bits, such
        as double hashing over these m = 2ᵃ·9 sizes, measure 4-8 × that."""
        filters, queries = 100, 2_000
        false_hits = 0
        for f in range(filters):
            bf = BloomFilter.for_capacity(capacity, 0.001)
            base = f * 1_000_000
            for key in range(base, base + capacity):
                bf.add(key)
            false_hits += sum(
                key in bf for key in range(base + capacity, base + capacity + queries)
            )
        k, m = bf.num_hashes, bf.num_bits
        expected = (1.0 - math.exp(-k * capacity / m)) ** k
        measured = false_hits / (filters * queries)
        assert 0.6 * expected <= measured <= 1.5 * expected, (measured, expected)

    def test_fill_fraction_grows(self):
        bf = BloomFilter.for_capacity(50, 0.01)
        assert fill_fraction(bf) == 0.0
        bf.add(1)
        assert fill_fraction(bf) > 0.0

    def test_expected_fp_rate_tracks_load(self):
        """At capacity, fill ** k (the predicted FP rate) is near target."""
        bf = BloomFilter.for_capacity(50, 0.01)
        for key in range(50):
            bf.add(key)
        assert 0.0 < fill_fraction(bf) ** bf.num_hashes < 0.05

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigError):
            BloomFilter(0, 1)
        with pytest.raises(ConfigError):
            BloomFilter(8, 0)
        with pytest.raises(ConfigError):
            bloom_filter_bits(0, 0.01)


@settings(max_examples=50, deadline=None)
@given(keys=st.sets(st.integers(0, 2**60), min_size=1, max_size=60))
def test_membership_property(keys):
    """Added keys are always members (no false negatives), any key set."""
    bf = BloomFilter.for_capacity(max(len(keys), 10), 0.005)
    for key in keys:
        bf.add(key)
    assert all(key in bf for key in keys)


@settings(max_examples=20, deadline=None)
@given(fp=st.floats(0.0001, 0.2))
def test_sizing_monotone_property(fp):
    assert bloom_bits_per_object(fp) >= bloom_bits_per_object(0.2) - 1e-9
    assert bloom_num_hashes(fp) >= 1
