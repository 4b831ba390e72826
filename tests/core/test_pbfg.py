"""Unit tests for PBFG layout arithmetic and the index-group builder."""

import pytest

from repro.core.pbfg import IndexGroupBuilder, IndexLayout
from repro.errors import ConfigError


def make_layout(**kw):
    params = dict(
        page_size=4096,
        sets_per_sg=256,
        sgs_per_group=16,
        bf_capacity=40,
        bf_false_positive_rate=0.001,
    )
    params.update(kw)
    return IndexLayout(**params)


class TestLayoutArithmetic:
    def test_paper_filter_size(self):
        layout = make_layout()
        assert layout.filter_bytes == 72  # §5.1: 576 bits

    def test_paper_packing_50_per_page(self):
        """Table 3 scale: 50 SGs per group → one PBFG per page."""
        layout = make_layout(sgs_per_group=50, sets_per_sg=1024)
        assert layout.offsets_per_page == 1
        assert layout.pages_per_group == 1024

    def test_small_groups_pack_multiple_offsets(self):
        layout = make_layout(sgs_per_group=16)
        assert layout.offsets_per_page == 4096 // (72 * 16)
        assert layout.pages_per_group == -(-256 // layout.offsets_per_page)

    def test_page_of_offset_consistent_with_offsets_of_page(self):
        layout = make_layout()
        for offset in range(layout.sets_per_sg):
            page = layout.page_of_offset(offset)
            assert offset in layout.offsets_of_page(page)

    def test_offset_out_of_range(self):
        layout = make_layout()
        with pytest.raises(ConfigError):
            layout.page_of_offset(256)

    def test_oversized_group_rejected(self):
        with pytest.raises(ConfigError):
            make_layout(sgs_per_group=100)  # 100 x 72 B > 4 KiB

    def test_fig10_packed_beats_naive(self):
        layout = make_layout()
        assert layout.packed_retrieval_pages() == 1
        assert layout.naive_retrieval_pages() == 16

    def test_index_overhead_small(self):
        layout = make_layout()
        assert 0 < layout.index_overhead_fraction() < 0.05


class TestBuilder:
    def test_statistical_mode_placeholders(self):
        layout = make_layout(sets_per_sg=8, sgs_per_group=2)
        builder = IndexGroupBuilder(layout)
        builder.add_sg(0)
        assert not builder.is_full
        builder.add_sg(1)
        assert builder.is_full
        members, pages = builder.take_group()
        assert members == [0, 1]
        assert pages == [
            ("pbfg-page", (0, 1), j) for j in range(layout.pages_per_group)
        ]
        assert not builder.members  # reset after take

    def test_take_empty_rejected(self):
        layout = make_layout()
        builder = IndexGroupBuilder(layout)
        with pytest.raises(ConfigError):
            builder.take_group()
