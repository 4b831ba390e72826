"""Unit tests for the conventional (block-interface) SSD wrapper."""

import pytest

from repro.flash.conventional import ConventionalSSD
from repro.flash.geometry import FlashGeometry


@pytest.fixture
def ssd():
    geo = FlashGeometry(
        page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=1
    )
    return ConventionalSSD(geo, op_ratio=0.25)


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

    def test_stats_shared_with_ftl(self, ssd):
        ssd.write(0, "x")
        assert ssd.stats.host_write_bytes == 4096

    def test_dlwa_emerges_under_churn(self, ssd):
        for round_ in range(10):
            for lba in range(ssd.num_lbas):
                ssd.write(lba, round_)
        assert ssd.stats.dlwa > 1.0
        # The set-baseline scenario: everything still intact.
        for lba in range(ssd.num_lbas):
            assert ssd.read(lba)[0] == 9
