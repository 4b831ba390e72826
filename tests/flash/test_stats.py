"""Unit tests for write/read accounting and amplification metrics."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flash.stats import FlashStats


class TestRecording:
    def test_initial_metrics_are_nan(self):
        s = FlashStats()
        assert math.isnan(s.alwa)
        assert math.isnan(s.dlwa)
        assert math.isnan(s.total_wa)
        assert math.isnan(s.read_amplification)

    def test_alwa_is_host_over_logical(self):
        s = FlashStats()
        s.record_logical(100)
        s.record_host_write(400)
        assert s.alwa == 4.0

    def test_dlwa_is_one_without_gc(self):
        s = FlashStats()
        s.record_host_write(4096)
        assert s.dlwa == 1.0

    def test_gc_adds_flash_but_not_host_bytes(self):
        s = FlashStats()
        s.record_host_write(4096, also_flash=False)
        s.flash_write_bytes += 4096
        s.record_gc(relocated_pages=3, page_size=4096)
        assert s.host_write_bytes == 4096
        assert s.flash_write_bytes == 4 * 4096
        assert s.dlwa == 4.0
        assert s.gc_runs == 1
        assert s.gc_relocated_pages == 3

    def test_total_wa_composes_alwa_and_dlwa(self):
        s = FlashStats()
        s.record_logical(1000)
        s.record_host_write(2000, also_flash=False)
        s.flash_write_bytes += 2000
        s.record_gc(relocated_pages=1, page_size=2000)
        assert s.total_wa == pytest.approx(s.alwa * s.dlwa)

    def test_batched_write_counts_one_op(self):
        s = FlashStats()
        s.record_host_write(10 * 4096, ops=1)
        assert s.host_write_ops == 1
        assert s.host_write_bytes == 10 * 4096

    def test_read_amplification(self):
        s = FlashStats()
        s.record_logical_read(100)
        s.record_host_read(4096)
        assert s.read_amplification == pytest.approx(40.96)

    def test_page_reads_equal_single_reads(self):
        batched, single = FlashStats(), FlashStats()
        batched.record_page_reads(3, 4096)
        for _ in range(3):
            single.record_host_read(4096)
        assert dataclasses.asdict(batched) == dataclasses.asdict(single)
        assert batched.host_read_ops == 3

    def test_negative_bytes_rejected(self):
        s = FlashStats()
        for method in (
            s.record_logical,
            s.record_logical_read,
            s.record_host_write,
            s.record_host_read,
        ):
            with pytest.raises(ValueError):
                method(-1)
        with pytest.raises(ValueError):
            s.record_gc(-1, 4096)

    def test_snapshot_contains_derived_metrics(self):
        s = FlashStats()
        s.record_logical(10)
        s.record_host_write(20)
        snap = s.snapshot()
        assert snap["alwa"] == 2.0
        assert snap["host_write_bytes"] == 20


@given(
    writes=st.lists(
        st.tuples(st.integers(1, 10_000), st.integers(1, 10_000)), min_size=1
    )
)
def test_counters_are_monotonic_and_alwa_matches(writes):
    """ALWA always equals the running byte ratio, regardless of order."""
    s = FlashStats()
    logical = host = 0
    for lb, hb in writes:
        s.record_logical(lb)
        s.record_host_write(hb)
        logical += lb
        host += hb
        assert s.logical_write_bytes == logical
        assert s.host_write_bytes == host
        assert s.alwa == pytest.approx(host / logical)
