"""Unit tests + property tests for the page-mapping FTL and its GC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FTLError, ReadError
from repro.flash.ftl import PageMapFTL
from repro.flash.geometry import FlashGeometry


def make_ftl(op_ratio=0.25, num_blocks=8, pages_per_block=4, **kw):
    geo = FlashGeometry(
        page_size=4096,
        pages_per_block=pages_per_block,
        num_blocks=num_blocks,
        blocks_per_zone=1,
    )
    return PageMapFTL(geo, op_ratio=op_ratio, **kw)


class TestBasics:
    def test_write_then_read(self):
        ftl = make_ftl()
        ftl.write(0, "hello")
        payload, _ = ftl.read(0)
        assert payload == "hello"

    def test_overwrite_returns_newest(self):
        ftl = make_ftl()
        ftl.write(3, "old")
        ftl.write(3, "new")
        assert ftl.read(3)[0] == "new"

    def test_read_unmapped_rejected(self):
        ftl = make_ftl()
        with pytest.raises(ReadError):
            ftl.read(0)

    def test_lba_bounds(self):
        ftl = make_ftl()
        with pytest.raises(FTLError):
            ftl.write(ftl.num_lbas, "x")
        with pytest.raises(FTLError):
            ftl.read(-1)

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write(1, "x")
        ftl.trim(1)
        assert not ftl.is_mapped(1)
        with pytest.raises(ReadError):
            ftl.read(1)
        ftl.trim(1)  # idempotent

    def test_op_ratio_shrinks_lba_space(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=1
        )
        quarter = PageMapFTL(geo, op_ratio=0.25)
        half = PageMapFTL(geo, op_ratio=0.5)
        assert quarter.num_lbas == 24
        assert half.num_lbas == 16

    def test_invalid_op_ratio_rejected(self):
        with pytest.raises(ConfigError):
            make_ftl(op_ratio=1.0)
        with pytest.raises(ConfigError):
            make_ftl(op_ratio=-0.1)

    def test_op_below_gc_watermark_rejected(self):
        """An FTL whose spare cannot cover the GC watermark deadlocks."""
        with pytest.raises(ConfigError):
            make_ftl(op_ratio=0.05)


class TestGC:
    def test_sustained_overwrites_trigger_gc(self):
        ftl = make_ftl(op_ratio=0.25)
        for round_ in range(6):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, (round_, lba))
        assert ftl.stats.gc_runs > 0
        # All data still readable and current after GC.
        for lba in range(ftl.num_lbas):
            assert ftl.read(lba)[0] == (5, lba)
        ftl.check_invariants()

    def test_gc_produces_dlwa_above_one(self):
        ftl = make_ftl(op_ratio=0.25)
        for round_ in range(8):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, round_)
        assert ftl.stats.dlwa > 1.0

    def test_more_op_means_less_dlwa(self):
        def churn(op):
            ftl = make_ftl(op_ratio=op, num_blocks=16)
            for round_ in range(12):
                for lba in range(ftl.num_lbas):
                    ftl.write(lba, round_)
            return ftl.stats.dlwa

        assert churn(0.5) < churn(0.15)


class _VictimRecorder(PageMapFTL):
    """Records the victim block id of every GC run, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.victims: list[int] = []

    def _gc_once(self, victim=None, *, now_us=0.0):
        if victim is None:
            victim = self._pick_victim()
        self.victims.append(victim)
        super()._gc_once(victim, now_us=now_us)


class _LinearScanFTL(_VictimRecorder):
    """Reference policy: the pre-index O(num_blocks) greedy scan.

    Minimum valid count over closed non-free blocks, ties broken by the
    lowest block id (strict ``<`` while scanning ids in order), early
    exit on a fully-invalid block — the exact semantics the bucket index
    replaced and must reproduce victim-for-victim.
    """

    def _pick_victim(self):
        free = set(self._free_blocks)
        best = None
        best_valid = None
        for block in range(self.geometry.num_blocks):
            if block == self._active_block or block in free:
                continue
            valid = self._valid_in_block[block]
            if best is None or valid < best_valid:
                best, best_valid = block, valid
                if valid == 0:
                    break
        return best


def _apply_ops(ftl, ops):
    """Interleave writes, trims and explicit GC; return the dict model."""
    model: dict[int, object] = {}
    for i, (kind, lba) in enumerate(ops):
        lba %= ftl.num_lbas
        if kind == 0:
            ftl.write(lba, i)
            model[lba] = i
        elif kind == 1:
            ftl.trim(lba)
            model.pop(lba, None)
        elif ftl._pick_victim() is not None:
            ftl._gc_once()
    return model


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 40)),
        min_size=1,
        max_size=400,
    )
)
def test_ftl_invariants_under_churn(ops):
    """Random write/trim/GC interleavings never corrupt internal state."""
    ftl = make_ftl(op_ratio=0.3, num_blocks=8, pages_per_block=4)
    model = _apply_ops(ftl, ops)
    ftl.check_invariants()
    for lba in range(ftl.num_lbas):
        if lba in model:
            assert ftl.read(lba)[0] == model[lba]
        else:
            assert not ftl.is_mapped(lba)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 40)),
        min_size=1,
        max_size=400,
    )
)
def test_victim_sequence_matches_linear_scan(ops):
    """The bucket index picks the same victims as the old linear scan."""
    geo = FlashGeometry(
        page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=1
    )
    fast = _VictimRecorder(geo, op_ratio=0.3)
    ref = _LinearScanFTL(geo, op_ratio=0.3)
    _apply_ops(fast, ops)
    _apply_ops(ref, ops)
    assert fast.victims == ref.victims
    assert list(fast._l2p) == list(ref._l2p)
    assert fast.stats.gc_runs == ref.stats.gc_runs
    assert fast.stats.gc_relocated_pages == ref.stats.gc_relocated_pages
    fast.check_invariants()


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 20)),
        min_size=1,
        max_size=300,
    )
)
def test_ftl_model_equivalence(ops):
    """The FTL behaves as a plain dict under write/trim, at any GC load."""
    ftl = make_ftl(op_ratio=0.3, num_blocks=8, pages_per_block=4)
    model: dict[int, object] = {}
    for i, (is_write, lba) in enumerate(ops):
        lba %= ftl.num_lbas
        if is_write:
            ftl.write(lba, i)
            model[lba] = i
        else:
            ftl.trim(lba)
            model.pop(lba, None)
    for lba in range(ftl.num_lbas):
        if lba in model:
            assert ftl.read(lba)[0] == model[lba]
        else:
            assert not ftl.is_mapped(lba)
    ftl.check_invariants()
