"""Unit tests for the buffered in-memory SG circle queue."""

import pytest

from repro.core.sgqueue import SetGroupQueue
from repro.errors import ConfigError


@pytest.fixture
def queue():
    return SetGroupQueue(depth=2, sets_per_sg=4, set_size=1000)


class TestPlacement:
    def test_prefers_front(self, queue):
        assert queue.try_insert(0, 1, 100)
        assert queue.front.find(0, 1) == 100
        assert queue.rear.find(0, 1) is None

    def test_overflows_to_rear(self, queue):
        queue.try_insert(0, 1, 900)  # front set 0 nearly full
        assert queue.try_insert(0, 2, 500)
        assert queue.rear.find(0, 2) == 500

    def test_blocked_when_all_full(self, queue):
        assert queue.try_insert(0, 1, 1000)
        assert queue.try_insert(0, 2, 1000)
        assert not queue.try_insert(0, 3, 500)

    def test_update_in_place_wherever_resident(self, queue):
        queue.try_insert(0, 1, 900)
        queue.try_insert(0, 2, 800)  # lands in the rear
        assert queue.try_insert(0, 2, 850)  # update, still in the rear
        assert queue.rear.find(0, 2) == 850
        assert queue.front.find(0, 2) is None

    def test_find_searches_all(self, queue):
        queue.try_insert(1, 5, 100)
        assert queue.find(1, 5) == 100
        assert queue.find(1, 6) is None

    def test_remove(self, queue):
        queue.try_insert(1, 5, 100)
        assert queue.remove(1, 5)
        assert not queue.remove(1, 5)
        assert queue.find(1, 5) is None


class TestRotation:
    def test_pop_front_seals_and_replenishes(self, queue):
        first = queue.front
        popped = queue.pop_front_for_flush()
        assert popped is first
        assert popped.sealed
        assert len(queue) == 2
        assert queue.front is not first

    def test_sg_ids_monotonic(self, queue):
        ids = [queue.pop_front_for_flush().sg_id for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_counters(self, queue):
        queue.try_insert(0, 1, 100)
        queue.try_insert(1, 2, 200)
        assert queue.used_bytes() == 300

    def test_depth_one_behaves(self):
        q = SetGroupQueue(depth=1, sets_per_sg=2, set_size=100)
        assert q.try_insert(0, 1, 100)
        assert not q.try_insert(0, 2, 100)

    def test_bad_depth(self):
        with pytest.raises(ConfigError):
            SetGroupQueue(depth=0, sets_per_sg=2, set_size=100)
