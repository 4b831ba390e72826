"""Unit tests for trace merging (§5.1 protocol)."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads import mixer
from repro.workloads.mixer import merged_twitter_trace, proportional_interleave
from repro.workloads.trace import OP_GET, Trace


def flat_trace(name, keys):
    keys = np.asarray(keys)
    return Trace(
        ops=np.full(len(keys), OP_GET, dtype=np.uint8),
        keys=keys,
        sizes=np.full(len(keys), 100),
        name=name,
    )


class TestInterleave:
    def test_preserves_all_requests(self):
        a = flat_trace("a", np.arange(10))
        b = flat_trace("b", np.arange(100, 105))
        mix = proportional_interleave([a, b])
        assert len(mix) == 15
        assert sorted(mix.keys) == sorted(list(range(10)) + list(range(100, 105)))

    def test_preserves_per_trace_order(self):
        a = flat_trace("a", [0, 1, 2, 3])
        b = flat_trace("b", [100, 101])
        mix = proportional_interleave([a, b])
        a_positions = [k for k in mix.keys if k < 100]
        b_positions = [k for k in mix.keys if k >= 100]
        assert a_positions == [0, 1, 2, 3]
        assert b_positions == [100, 101]

    def test_no_long_runs(self):
        """Equal-length inputs alternate — no workload-dominated period."""
        a = flat_trace("a", np.zeros(50, dtype=int))
        b = flat_trace("b", np.ones(50, dtype=int) * 999)
        mix = proportional_interleave([a, b])
        longest = run = 1
        for prev, cur in zip(mix.keys, mix.keys[1:]):
            run = run + 1 if (prev == cur) else 1
            longest = max(longest, run)
        assert longest <= 2

    def test_empty_inputs_rejected(self):
        with pytest.raises(TraceError):
            proportional_interleave([])
        with pytest.raises(TraceError):
            proportional_interleave([flat_trace("a", np.array([], dtype=int))])

    def test_proportional_spread(self):
        """A 3:1 mix keeps the minority spread across the whole trace."""
        a = flat_trace("a", np.zeros(90, dtype=int))
        b = flat_trace("b", np.ones(30, dtype=int))
        mix = proportional_interleave([a, b])
        b_positions = np.nonzero(mix.keys == 1)[0]
        # The minority's first/last appearances are near the ends.
        assert b_positions[0] < 10
        assert b_positions[-1] > len(mix) - 10


def assert_whole_sort_order(mix, traces):
    """``mix`` is the merge written out whole: one stable sort of every
    virtual position."""
    positions = [
        (np.arange(len(t)) + 0.5) / len(t) + j * 1e-12
        for j, t in enumerate(traces)
        if len(t)
    ]
    order = np.argsort(np.concatenate(positions), kind="stable")
    for column in ("ops", "keys", "sizes"):
        want = np.concatenate([getattr(t, column) for t in traces])[order]
        assert np.array_equal(getattr(mix, column), want)


def numbered_trace(j, n):
    return Trace(
        ops=np.arange(n) % 2,
        keys=j * 1_000_000 + np.arange(n),
        sizes=1 + np.arange(n) % 7,
        name=f"t{j}",
    )


class TestWindowedInterleave:
    """The merge runs one window of the position axis at a time; it must
    give the order of one whole sort for any lengths and window size."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 300), min_size=1, max_size=6).filter(any),
        window=st.integers(1, 64),
    )
    def test_matches_whole_sort(self, lengths, window):
        traces = [numbered_trace(j, n) for j, n in enumerate(lengths)]
        old, mixer._WINDOW = mixer._WINDOW, window
        try:
            mix = proportional_interleave(traces)
        finally:
            mixer._WINDOW = old
        assert_whole_sort_order(mix, traces)

    def test_unequal_lengths_across_many_windows(self):
        lengths = [150_001, 3, 99_999, 70_000]
        traces = [numbered_trace(j, n) for j, n in enumerate(lengths)]
        assert_whole_sort_order(proportional_interleave(traces), traces)

    def test_traced_peak_is_result_plus_one_window(self):
        traces = [numbered_trace(j, n) for j, n in enumerate([100_000] * 3 + [99_999])]
        total = sum(len(t) for t in traces)
        tracemalloc.start()
        try:
            proportional_interleave(traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 17 B per merged request is the result itself (ops + keys + sizes).
        assert peak <= 17 * total + 64 * mixer._WINDOW


class TestMergedTwitter:
    def test_disjoint_key_spaces(self):
        mix = merged_twitter_trace(num_requests=8000, wss_scale=1 / 4096)
        comps = mix.meta["components"]
        assert len(comps) == 4

    def test_mean_object_size_is_tiny(self):
        mix = merged_twitter_trace(num_requests=20_000, wss_scale=1 / 2048)
        assert 150 < mix.mean_request_size < 400

    def test_deterministic(self):
        a = merged_twitter_trace(num_requests=4000, seed=9)
        b = merged_twitter_trace(num_requests=4000, seed=9)
        assert np.array_equal(a.keys, b.keys)

    def test_too_few_requests_rejected(self):
        with pytest.raises(TraceError):
            merged_twitter_trace(num_requests=2)

    def test_all_clusters_continuously_present(self):
        """Each quarter of the merged trace contains all four clusters."""
        mix = merged_twitter_trace(num_requests=8000, wss_scale=1 / 4096)
        # Key spaces are stacked: find cluster by key range boundaries.
        quarters = np.array_split(np.arange(len(mix)), 4)
        # Build the key-range boundaries from the merged key population.
        keys = mix.keys
        for q in quarters:
            # With 4 interleaved clusters, any contiguous quarter spans
            # a wide range of key ids across the stacked key spaces.
            assert keys[q].max() - keys[q].min() > mix.num_keys * 0.3


# Two entries: the 5.5M-request trace is ~94 MB and must not outlive
# the tests that read it.
@functools.lru_cache(maxsize=2)
def merged(num_requests, wss_scale):
    return merged_twitter_trace(num_requests=num_requests, wss_scale=wss_scale)


class TestMergedTwitterBytes:
    """Generation is pinned byte for byte: experiments, goldens and
    fig08's prefix slicing all rest on the exact arrays."""

    @pytest.mark.parametrize(
        "num_requests, wss_scale, digest",
        [
            (60_000, 1 / 128, "62452f029e45"),
            (250_000, 1 / 128, "c82ed6da7c8b"),
            (344_064, 1 / 32, "a6931c234553"),
            # fig08's trace at --scale full: 1.38M requests per cluster.
            (5_505_024, 1 / 32, "d73ba7f9fcc2"),
        ],
    )
    def test_sha256_of_ops_keys_sizes(self, num_requests, wss_scale, digest):
        trace = merged(num_requests, wss_scale)
        h = hashlib.sha256()
        for column in (trace.ops, trace.keys, trace.sizes):
            h.update(column.tobytes())
        assert h.hexdigest()[:12] == digest

    @pytest.mark.parametrize(
        "short, long, wss_scale",
        [(60_000, 250_000, 1 / 128), (200_000, 344_064, 1 / 32)],
    )
    def test_shorter_trace_is_a_prefix(self, short, long, wss_scale):
        """With ``num_requests % 4 == 0`` (four clusters, equal slices)
        a trace is an exact prefix of any longer one."""
        a, b = merged(short, wss_scale), merged(long, wss_scale)
        for column in ("ops", "keys", "sizes"):
            assert np.array_equal(getattr(a, column), getattr(b, column)[:short])
