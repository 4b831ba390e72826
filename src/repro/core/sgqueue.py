"""Buffered in-memory SG circle queue (§4.2, technique ①).

Nemo keeps several in-memory SGs in a queue.  Inserts go to "the set of
the available SG closest to the queue's front", so the front SG — the
next one to be flushed — keeps absorbing objects into its underfilled
sets while newer SGs take the overflow of already-full sets.  The front
SG is flushed only when the whole queue can no longer place an object
(the paper's "rear SG is nearly full" trigger), decoupling flushing from
insertion.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.core.setgroup import SetGroup
from repro.errors import ConfigError, EngineStateError


class SetGroupQueue:
    """FIFO queue of mutable in-memory SGs (front = oldest = next flush)."""

    def __init__(self, depth: int, sets_per_sg: int, set_size: int) -> None:
        if depth < 1:
            raise ConfigError("queue depth must be >= 1")
        self.depth = depth
        self.sets_per_sg = sets_per_sg
        self.set_size = set_size
        self._next_id = 0
        self._queue: deque[SetGroup] = deque()
        for _ in range(depth):
            self._push_new()

    def _push_new(self) -> SetGroup:
        sg = SetGroup(self._next_id, self.sets_per_sg, self.set_size)
        self._next_id += 1
        self._queue.append(sg)
        return sg

    # ------------------------------------------------------------------
    @property
    def front(self) -> SetGroup:
        return self._queue[0]

    @property
    def rear(self) -> SetGroup:
        return self._queue[-1]

    def __iter__(self) -> Iterator[SetGroup]:
        """Front-to-rear iteration (the paper's placement order)."""
        return iter(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def try_insert(
        self, offset: int, key: int, size: int, *, writeback: bool = False
    ) -> bool:
        """Place the object in the front-most SG with room at ``offset``.

        A key already resident in some queued SG is updated in place
        (whichever SG holds it), keeping a single current copy in
        memory.  Returns False when every SG's target set is full —
        the flush-policy trigger.

        The membership pass probes the per-set dicts directly (the
        `sg.find` indirection hoisted out — this runs once per insert
        over every queued SG).
        """
        queue = self._queue
        for sg in queue:
            if key in sg.sets[offset].objects:
                return sg.try_insert(offset, key, size, writeback=writeback)
        for sg in queue:
            if sg.try_insert(offset, key, size, writeback=writeback):
                return True
        return False

    def find(self, offset: int, key: int) -> int | None:
        """Size of ``key`` if resident in any queued SG, else None."""
        for sg in self._queue:
            size = sg.sets[offset].objects.get(key)
            if size is not None:
                return size
        return None

    def remove(self, offset: int, key: int) -> bool:
        for sg in self._queue:
            if sg.sets[offset].remove(key) is not None:
                return True
        return False

    def pop_front_for_flush(self) -> SetGroup:
        """Seal and detach the front SG; a fresh SG joins at the rear."""
        if not self._queue:
            raise EngineStateError("SG queue is empty")
        sg = self._queue.popleft()
        sg.seal()
        self._push_new()
        return sg

    def used_bytes(self) -> int:
        return sum(sg.used_bytes for sg in self._queue)
