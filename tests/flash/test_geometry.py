"""Unit tests for flash geometry arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError, ConfigError
from repro.flash.geometry import MIB, FlashGeometry


class TestConstruction:
    def test_defaults_are_consistent(self):
        geo = FlashGeometry()
        assert geo.capacity_bytes == geo.num_pages * geo.page_size
        assert geo.num_zones * geo.pages_per_zone == geo.num_pages

    def test_rejects_nonpositive_page_size(self):
        with pytest.raises(ConfigError):
            FlashGeometry(page_size=0)

    def test_rejects_nonpositive_blocks(self):
        with pytest.raises(ConfigError):
            FlashGeometry(num_blocks=0)

    def test_rejects_blocks_not_multiple_of_zone(self):
        with pytest.raises(ConfigError):
            FlashGeometry(num_blocks=10, blocks_per_zone=4)

    def test_from_capacity_rounds_up(self):
        geo = FlashGeometry.from_capacity(10 * MIB, zone_size=MIB)
        assert geo.capacity_bytes >= 10 * MIB
        assert geo.zone_size == MIB

    def test_from_capacity_rejects_zero(self):
        with pytest.raises(ConfigError):
            FlashGeometry.from_capacity(0)

    def test_describe_mentions_zones(self):
        assert "zones" in FlashGeometry().describe()


class TestAddressing:
    @pytest.fixture
    def geo(self):
        return FlashGeometry(
            page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=2
        )

    def test_page_to_zone(self, geo):
        assert geo.page_to_zone(0) == 0
        assert geo.page_to_zone(31) == 0
        assert geo.page_to_zone(32) == 1

    def test_block_first_page(self, geo):
        assert geo.block_first_page(3) == 48

    def test_zone_first_page(self, geo):
        assert geo.zone_first_page(1) == 32

    def test_out_of_range_page(self, geo):
        with pytest.raises(AlignmentError):
            geo.check_page(geo.num_pages)
        with pytest.raises(AlignmentError):
            geo.check_page(-1)

    def test_out_of_range_block(self, geo):
        with pytest.raises(AlignmentError):
            geo.check_block(geo.num_blocks)

    def test_out_of_range_zone(self, geo):
        with pytest.raises(AlignmentError):
            geo.check_zone(geo.num_zones)


@given(
    pages_per_block=st.integers(1, 64),
    num_zones=st.integers(1, 32),
    blocks_per_zone=st.integers(1, 8),
)
def test_address_roundtrip(pages_per_block, num_zones, blocks_per_zone):
    """Every page maps to the block and zone that contain it."""
    geo = FlashGeometry(
        page_size=512,
        pages_per_block=pages_per_block,
        num_blocks=num_zones * blocks_per_zone,
        blocks_per_zone=blocks_per_zone,
    )
    for page in range(0, geo.num_pages, max(1, geo.num_pages // 50)):
        block = page // pages_per_block
        zone = geo.page_to_zone(page)
        assert geo.block_first_page(block) <= page < geo.block_first_page(block) + pages_per_block
        first = geo.zone_first_page(zone)
        assert first <= page < first + geo.pages_per_zone
