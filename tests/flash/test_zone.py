"""Unit tests for the ZNS zone state machine."""

import pytest

from repro.errors import ZoneStateError
from repro.flash.zone import Zone, ZoneState


class TestLifecycle:
    def test_new_zone_is_empty(self):
        z = Zone(zone_id=0, capacity_pages=8)
        assert z.state is ZoneState.EMPTY
        assert z.write_pointer == 0
        assert z.remaining_pages == 8

    def test_first_write_opens(self):
        z = Zone(0, 8)
        assert z.advance(1) == 0
        assert z.state is ZoneState.OPEN
        assert z.write_pointer == 1

    def test_fills_to_full(self):
        z = Zone(0, 4)
        z.advance(4)
        assert z.state is ZoneState.FULL
        assert z.remaining_pages == 0

    def test_write_past_capacity_rejected(self):
        z = Zone(0, 4)
        z.advance(3)
        with pytest.raises(ZoneStateError):
            z.advance(2)

    def test_write_to_full_rejected(self):
        z = Zone(0, 2)
        z.advance(2)
        with pytest.raises(ZoneStateError):
            z.advance(1)

    def test_reset_returns_to_empty(self):
        z = Zone(0, 4)
        z.advance(4)
        z.reset()
        assert z.state is ZoneState.EMPTY
        assert z.write_pointer == 0

    def test_advance_returns_old_pointer(self):
        z = Zone(0, 8)
        assert z.advance(3) == 0
        assert z.advance(2) == 3

    def test_nonpositive_advance_rejected(self):
        z = Zone(0, 8)
        with pytest.raises(ZoneStateError):
            z.advance(0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ZoneStateError):
            Zone(0, 0)
