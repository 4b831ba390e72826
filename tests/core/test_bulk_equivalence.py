"""Property tests: bulk fast paths match their scalar references exactly.

The vectorized request pipeline and the columnar replay lane lean on
bulk primitives whose results must be bit-for-bit identical to the
scalar paths they replace:

- the array kernel :meth:`HotnessTracker.record_access_array` versus
  its scalar loop;
- :meth:`IndexCache.resident`, the O(1) all-resident test, versus a
  membership sweep over the live groups' pages;
- :meth:`ZipfGenerator.sample` drawing one batch versus the same seeded
  generator drawing the stream in arbitrary smaller pieces.

Hypothesis drives all of them over adversarial key sets, structure
geometries and batch splits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotness import HotnessTracker
from repro.core.index_cache import IndexCache
from repro.workloads.zipf import ZipfGenerator

class TestHotnessArrayKernelEquivalence:
    @staticmethod
    def _make_pair(num_offsets, cached_pages):
        def page_of(offset):
            return offset // 4

        def page_cached(page_idx):
            return page_idx in cached_pages

        return (
            HotnessTracker(
                0.3,
                page_idx_cached=page_cached,
                page_of_offset=page_of,
                num_offsets=num_offsets,
            ),
            HotnessTracker(
                0.3, page_idx_cached=page_cached, page_of_offset=page_of
            ),
        )

    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 30),  # key
                st.integers(0, 63),  # offset
                st.booleans(),  # in_window
            ),
            max_size=60,
        ),
        cached_pages=st.sets(st.integers(0, 16), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_kernels_match_scalar(self, events, cached_pages):
        # Both constructor variants (flat offset->page table and the
        # callable fallback) must agree with the scalar loop.
        for tracker in self._make_pair(64, cached_pages):
            scalar = HotnessTracker(
                0.3,
                page_idx_cached=lambda p: p in cached_pages,
                page_of_offset=lambda o: o // 4,
            )
            for key, offset, in_window in events:
                scalar.record_access(key, offset, in_window=in_window)
            tracker.record_access_array(
                np.asarray([e[0] for e in events], dtype=np.int64),
                np.asarray([e[1] for e in events], dtype=np.int64),
                np.asarray([e[2] for e in events], dtype=bool),
            )
            assert tracker._bits == scalar._bits


class TestIndexCacheBulkEquivalence:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("access"), st.integers(0, 7), st.integers(0, 3)
                ),
                st.tuples(st.just("drop"), st.integers(0, 7), st.just(0)),
                st.tuples(st.just("new"), st.just(0), st.just(0)),
            ),
            max_size=60,
        ),
        capacity=st.integers(min_value=0, max_value=10),
        flat=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_resident_matches_bruteforce(self, ops, capacity, flat):
        """The O(1) all-resident test equals ``all(p in cache ...)``
        over the live groups after every access / group death, as long
        as only live groups' pages are accessed (the engine's contract).
        """
        cache = IndexCache(capacity, num_page_indices=4 if flat else None)
        live: list[int] = []
        next_gid = 0
        for op, g, page_idx in ops:
            if op == "new":
                live.append(next_gid)
                next_gid += 1
            elif live and op == "access":
                cache.access((live[g % len(live)], page_idx))
            elif live:
                cache.drop_group(live.pop(g % len(live)))
            for idx in range(4):
                assert cache.resident(idx, len(live)) == all(
                    (gid, idx) in cache for gid in live
                )


class TestZipfBulkEquivalence:
    @given(
        num_keys=st.integers(min_value=1, max_value=500),
        alpha=st.floats(min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shuffle=st.booleans(),
        splits=st.lists(st.integers(min_value=0, max_value=40),
                        min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_batches_match_single_draw(
        self, num_keys, alpha, seed, shuffle, splits
    ):
        total = sum(splits)
        whole = ZipfGenerator(
            num_keys, alpha, seed=seed, shuffle=shuffle
        ).sample(total)
        pieces_gen = ZipfGenerator(num_keys, alpha, seed=seed, shuffle=shuffle)
        pieces = [pieces_gen.sample(n) for n in splits]
        assert np.array_equal(whole, np.concatenate(pieces))

    @given(
        num_keys=st.integers(min_value=1, max_value=200),
        alpha=st.floats(min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_draw_matches_one_at_a_time_reference(
        self, num_keys, alpha, seed, count
    ):
        bulk = ZipfGenerator(num_keys, alpha, seed=seed).sample(count)
        ref_gen = ZipfGenerator(num_keys, alpha, seed=seed)
        reference = [int(ref_gen.sample(1)[0]) for _ in range(count)]
        assert bulk.tolist() == reference
