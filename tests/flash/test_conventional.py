"""The conventional (block-interface) SSD: ``PageMapFTL`` used as a device.

The Set baseline runs on a ``PageMapFTL`` directly; these tests drive it
through the host interface an engine uses (LBA read/write, mapping
queries, TRIM, shared stats).
"""

import pytest

from repro.flash.ftl import PageMapFTL
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import FlashStats


@pytest.fixture
def geo():
    return FlashGeometry(
        page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=1
    )


@pytest.fixture
def ssd(geo):
    return PageMapFTL(geo, op_ratio=0.25)


class TestInterface:
    def test_usable_space_respects_op(self, ssd):
        assert ssd.num_lbas == int(ssd.geometry.num_pages * 0.75)

    def test_write_read_roundtrip(self, ssd):
        ssd.write(5, {"k": 9})
        payload, _ = ssd.read(5)
        assert payload == {"k": 9}

    def test_is_mapped_and_trim(self, ssd):
        assert not ssd.is_mapped(2)
        ssd.write(2, "v")
        assert ssd.is_mapped(2)
        ssd.trim(2)
        assert not ssd.is_mapped(2)

    def test_stats_shared_with_ftl(self, geo):
        stats = FlashStats()
        ssd = PageMapFTL(geo, op_ratio=0.25, stats=stats)
        ssd.write(0, "x")
        assert ssd.stats is stats
        assert stats.host_write_bytes == 4096

    def test_dlwa_emerges_under_churn(self, ssd):
        for round_ in range(10):
            for lba in range(ssd.num_lbas):
                ssd.write(lba, round_)
        assert ssd.stats.dlwa > 1.0
        # The set-baseline scenario: everything still intact.
        for lba in range(ssd.num_lbas):
            assert ssd.read(lba)[0] == 9

    def test_record_reads_counts_nand_and_host_reads(self, ssd):
        ssd.write(1, "x")
        ssd.read(1)
        ssd.record_reads(3)
        assert ssd.nand.read_count == 4
        assert ssd.stats.host_read_ops == 4
        assert ssd.stats.host_read_bytes == ssd.stats.flash_read_bytes == 4 * 4096
