"""Unit + property tests for the Zipf key sampler."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads.zipf import (
    BLOCK_KEYS,
    ZipfGenerator,
    rank_dtype,
    zipf_cdf_blocks,
    zipf_normaliser,
    zipf_probabilities,
)


def whole_array_cdf(num_keys, alpha):
    """The CDF as one universe-sized array: the reference the blocked
    CDF must equal bit for bit."""
    weights = np.arange(1, num_keys + 1, dtype=np.float64)
    np.power(weights, -alpha, out=weights)
    weights /= weights.sum()
    np.cumsum(weights, out=weights)
    weights[-1] = 1.0
    return weights


class TestProbabilities:
    def test_sum_to_one(self):
        p = zipf_probabilities(1000, 1.2)
        assert p.sum() == pytest.approx(1.0)

    def test_monotone_decreasing_by_rank(self):
        p = zipf_probabilities(100, 0.9)
        assert np.all(np.diff(p) <= 0)

    def test_alpha_zero_is_uniform(self):
        p = zipf_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(TraceError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(TraceError):
            zipf_probabilities(10, -1.0)


class TestSampling:
    def test_deterministic_with_seed(self):
        a = ZipfGenerator(1000, 1.2, seed=7).sample(500)
        b = ZipfGenerator(1000, 1.2, seed=7).sample(500)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = ZipfGenerator(1000, 1.2, seed=1).sample(500)
        b = ZipfGenerator(1000, 1.2, seed=2).sample(500)
        assert not np.array_equal(a, b)

    def test_keys_in_universe(self):
        keys = ZipfGenerator(100, 1.3, seed=0).sample(5000)
        assert keys.min() >= 0
        assert keys.max() < 100

    def test_negative_count_rejected(self):
        with pytest.raises(TraceError):
            ZipfGenerator(10, 1.0).sample(-1)

    def test_pareto_8020_at_alpha_one(self):
        """α ≈ 1 gives the classic 80/20 concentration the paper cites."""
        share = zipf_probabilities(100_000, 1.0)[:20_000].sum()
        assert 0.7 < share < 0.95

    def test_hotter_alpha_concentrates_more(self):
        lo = zipf_probabilities(10_000, 0.8)[:1_000].sum()
        hi = zipf_probabilities(10_000, 1.3)[:1_000].sum()
        assert hi > lo

    def test_empirical_matches_expected_share(self):
        gen = ZipfGenerator(5_000, 1.2, seed=3, shuffle=False)
        keys = gen.sample(200_000)
        top_k = 500  # hottest 10 % of ranks (ranks = keys when unshuffled)
        empirical = np.mean(keys < top_k)
        expected = zipf_probabilities(5_000, 1.2)[:top_k].sum()
        assert empirical == pytest.approx(expected, abs=0.02)

    def test_shuffle_scatters_hot_keys(self):
        """With shuffling, the hottest key is (almost surely) not rank 0."""
        gen = ZipfGenerator(10_000, 1.2, seed=0, shuffle=True)
        keys = gen.sample(50_000)
        values, counts = np.unique(keys, return_counts=True)
        hottest = values[counts.argmax()]
        assert hottest == gen._rank_to_key()[0]
        assert hottest != 0


class TestSampleBytes:
    """Two draws in a row are pinned byte for byte: every trace
    generator builds on them, and a draw must continue where the last
    one stopped."""

    @pytest.mark.parametrize(
        "shuffle, digest", [(True, "9e042e03079f"), (False, "06142e4c3372")]
    )
    def test_sha256_of_two_draws(self, shuffle, digest):
        gen = ZipfGenerator(50_000, 1.1, seed=5, shuffle=shuffle)
        first, second = gen.sample(3000), gen.sample(7000)
        assert first.dtype == second.dtype == np.int64
        h = hashlib.sha256()
        for draw in (first, second):
            h.update(draw.tobytes())
        assert h.hexdigest()[:12] == digest


class TestRankToKeyPermutation:
    def test_int32_below_2_pow_31_keys(self):
        assert rank_dtype(1) is np.int32
        assert rank_dtype(2**31 - 1) is np.int32
        assert rank_dtype(2**31) is np.int64
        assert rank_dtype(2**40) is np.int64

    @pytest.mark.parametrize("num_keys", [1, 2, 7, 1000, 65_537])
    def test_equals_numpy_permutation(self, num_keys):
        """The narrow permutation is the one ``Generator.permutation``
        draws from the same seed, so keys stay byte-identical."""
        gen = ZipfGenerator(num_keys, 1.0, seed=11)
        expected = np.random.default_rng(11 ^ 0x5EED).permutation(num_keys)
        assert np.array_equal(gen._rank_to_key(), expected)


@settings(max_examples=20, deadline=None)
@given(
    num_keys=st.integers(2, 2000),
    alpha=st.floats(0.0, 2.0, allow_nan=False),
)
def test_sample_domain_property(num_keys, alpha):
    gen = ZipfGenerator(num_keys, alpha, seed=1)
    keys = gen.sample(256)
    assert keys.min() >= 0
    assert keys.max() < num_keys


#: Universes around the block edges, plus cluster_29's at fig08's 1/32.
BLOCK_EDGE_UNIVERSES = [1, 2, 7, 65_535, 65_536, 65_537, 131_081]
#: Uniform, the Table 5 range, and a deep float plateau below 1.0.
ALPHAS = [0.0, 1.14, 2.0, 3.0]


class TestBlockedAgainstWholeArray:
    """The blocked CDF and inversion equal the whole-array ones byte for
    byte: every trace pin rests on it."""

    @pytest.mark.parametrize(
        "num_keys",
        [
            BLOCK_KEYS - 1,
            BLOCK_KEYS,
            BLOCK_KEYS + 1,
            2 * BLOCK_KEYS - 1,
            2 * BLOCK_KEYS,
            2 * BLOCK_KEYS + 1,
            2 * BLOCK_KEYS + 9,
            3 * BLOCK_KEYS + 5,
            8 * BLOCK_KEYS + 3,
            4_770_393,
        ],
    )
    @pytest.mark.parametrize("alpha", ALPHAS + [1.2323])
    def test_normaliser_equals_np_sum(self, num_keys, alpha):
        """Fails if numpy changes ``np.add.reduce``'s summation order."""
        weights = np.power(np.arange(1, num_keys + 1, dtype=np.float64), -alpha)
        assert zipf_normaliser(num_keys, alpha) == np.sum(weights)

    @settings(max_examples=40, deadline=None)
    @given(
        num_keys=st.sampled_from(BLOCK_EDGE_UNIVERSES),
        alpha=st.sampled_from(ALPHAS),
        seed=st.integers(0, 2**31 - 1),
        count=st.integers(0, 3000),
        shuffle=st.booleans(),
    )
    @example(num_keys=4_770_393, alpha=1.2323, seed=0, count=50_000, shuffle=True)
    def test_sample_and_next_draw_equal_whole_array(
        self, num_keys, alpha, seed, count, shuffle
    ):
        gen = ZipfGenerator(num_keys, alpha, seed=seed, shuffle=shuffle)
        got = gen.sample(count)
        rng = np.random.default_rng(seed)
        ranks = np.searchsorted(
            whole_array_cdf(num_keys, alpha), rng.random(count), side="left"
        )
        expected = gen._rank_to_key()[ranks] if shuffle else ranks
        assert got.dtype == np.int64
        assert got.tobytes() == expected.astype(np.int64).tobytes()
        assert gen._rng.random() == rng.random()

    @pytest.mark.parametrize("num_keys", BLOCK_EDGE_UNIVERSES + [4_770_393])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_blocks_and_edge_draws_equal_whole_array(self, num_keys, alpha):
        """The blocks concatenate to the whole-array CDF, and draws at its
        block edges, its plateaus and both ends of [0, 1) invert the same."""
        cdf = whole_array_cdf(num_keys, alpha)
        blocks = list(zipf_cdf_blocks(num_keys, alpha))
        assert [lo for lo, _ in blocks] == list(range(0, num_keys, BLOCK_KEYS))
        assert np.concatenate([b for _, b in blocks]).tobytes() == cdf.tobytes()
        edges = cdf[BLOCK_KEYS - 1 :: BLOCK_KEYS]
        u = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0)],
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
                np.random.default_rng(num_keys).random(2000),
            ]
        )
        # Draws lie in [0, 1); a CDF that drifts above 1.0 has edges there.
        u = u[u < 1.0]
        gen = ZipfGenerator(num_keys, alpha)
        expected = np.searchsorted(cdf, u, side="left")
        assert gen._ranks(u).tobytes() == expected.tobytes()
