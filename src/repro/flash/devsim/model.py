"""Event-lane latency model behind the analytic ``LatencyModel`` surface.

:class:`EventLatencyModel` subclasses the analytic model so every
consumer — the devices' ``latency`` slot, the engines' ``latency=``
constructor parameter, type annotations throughout — accepts it
unchanged.  The dataclass fields (``num_channels``, ``timings``,
``read_cache_pages``) and the controller read-buffer LRU are inherited;
the per-channel ``busy_until`` arrays are superseded by one
:class:`~repro.flash.devsim.nand.Die` per channel, each with its own
queues, suspend-resume and clock.

Semantics contract (DESIGN.md §9):

- Same surface, same units: ``read``/``read_many``/``program``/
  ``program_many`` return completion latency + ``transfer_us``;
  ``erase`` returns raw completion latency (the documented asymmetry —
  erase is a command, no host data transfer), both lanes identical.
- The two lanes agree on every scenario where the analytic horizon
  model is exact: unloaded reads, channel collisions, floor-bounded
  reads behind writes, batched flush striping.  They diverge only where
  the event lane is more faithful: a preempted write's *in-device*
  completion extends by the reads that suspended it, so later writes on
  that die queue behind the residual (the analytic lane forgets the
  residual once the read's horizon passes).  The timeline goldens pin
  both behaviours.
- Timestamps must be non-decreasing across calls (the replay harness
  guarantees this): one model clock covers every die, and an op
  submitted behind it is a ``ConfigError``.  A call advances only the
  dies it submits to, each to ``now_us`` before its first submit; a die
  left behind catches up when next touched, which is exact because dies
  share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.errors import ConfigError
from repro.flash.devsim.nand import OP_ERASE, OP_PROGRAM, OP_READ, Die, NandOp
from repro.flash.latency import LatencyModel


@dataclass
class EventLatencyModel(LatencyModel):
    """Discrete-event device lane (``make_latency_model("event")``).

    Parameters are the analytic model's; page ``p`` is served by die
    ``p % num_channels``, the analytic ``channel_of``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._build()

    def _build(self) -> None:
        #: Model clock (µs): the latest timestamp any call has carried.
        self.now = 0.0
        self.dies = [Die(i, self.timings) for i in range(self.num_channels)]

    def _die_at(self, page: int, now_us: float) -> Die:
        """The die serving ``page``, advanced to ``now_us``."""
        die = self.dies[page % self.num_channels]
        die.advance(now_us)
        return die

    def _batch_dies(self, pages: list[int], now_us: float) -> list[Die]:
        """Each page's die; every distinct one is advanced to ``now_us``
        once, up front, so all the batch's submits happen at ``now_us``
        with nothing fired in between."""
        dies = self.dies
        nch = self.num_channels
        batch = [dies[page % nch] for page in pages]
        for die in dict.fromkeys(batch):
            die.advance(now_us)
        return batch

    def _behind(self, now_us: float) -> ConfigError:
        return ConfigError(
            f"op submitted at {now_us:g}us behind the device clock {self.now:g}us"
        )

    def _submit(
        self, die: Die, kind: str, page: int, service_us: float, now_us: float
    ) -> NandOp:
        if now_us < self.now:
            raise self._behind(now_us)
        op = NandOp(kind, page, service_us)
        die.submit(op, now_us)
        return op

    # -- LatencyModel surface ------------------------------------------
    # Reads take one inlined pass per page, as the analytic lane's
    # ``read_many`` does: the controller-cache probe (the inherited LRU;
    # a hit costs ``transfer_us`` and touches no die), the die advanced
    # to ``now_us`` only when it has an event due by then, the submit.

    def read(self, page: int, now_us: float, *, background: bool = False) -> float:
        if now_us > self.now:
            self.now = now_us
        transfer_us = self.timings.transfer_us
        cap = self.read_cache_pages
        if cap:
            cache = self._read_cache
            if page in cache:
                cache.move_to_end(page)
                return transfer_us
            cache[page] = None
            while len(cache) > cap:
                cache.popitem(last=False)
        if now_us < self.now:
            raise self._behind(now_us)
        die = self.dies[page % self.num_channels]
        # The die's next event: a planned suspend always precedes the
        # in-flight op's completion.
        due = die._suspend_at
        if due is None:
            due = die._complete_at
        if due is not None and due <= now_us:
            die.advance(now_us)
        op = NandOp(OP_READ, page, self.timings.read_us, background=background)
        die.submit(op, now_us)
        return op.projected_end - now_us + transfer_us

    def read_many(
        self, pages: list[int], now_us: float, *, background: bool = False
    ) -> float:
        """:meth:`read` per page, returning the slowest; a die is advanced
        at most once per call, so all the batch's submits happen at
        ``now_us`` with nothing fired in between."""
        if not pages:
            return 0.0
        if now_us > self.now:
            self.now = now_us
        behind = now_us < self.now
        t = self.timings
        read_us = t.read_us
        transfer_us = t.transfer_us
        dies = self.dies
        nch = self.num_channels
        cap = self.read_cache_pages
        cache = self._read_cache
        advanced = 0  # bitmask of the dies this call has looked at
        worst = 0.0
        for page in pages:
            if cap:
                if page in cache:
                    cache.move_to_end(page)
                    if transfer_us > worst:
                        worst = transfer_us
                    continue
                cache[page] = None
                while len(cache) > cap:
                    cache.popitem(last=False)
            if behind:
                raise self._behind(now_us)
            ch = page % nch
            die = dies[ch]
            if not advanced >> ch & 1:
                advanced |= 1 << ch
                due = die._suspend_at
                if due is None:
                    due = die._complete_at
                if due is not None and due <= now_us:
                    die.advance(now_us)
            op = NandOp(OP_READ, page, read_us, background=background)
            die.submit(op, now_us)
            lat = op.projected_end - now_us + transfer_us
            if lat > worst:
                worst = lat
        return worst

    def program(self, page: int, now_us: float) -> float:
        if now_us > self.now:
            self.now = now_us
        die = self._die_at(page, now_us)
        op = self._submit(die, OP_PROGRAM, page, self.timings.program_us, now_us)
        return op.projected_end - now_us + self.timings.transfer_us

    def program_many(self, pages: list[int], now_us: float) -> float:
        if not pages:
            return 0.0
        if now_us > self.now:
            self.now = now_us
        program_us = self.timings.program_us
        transfer_us = self.timings.transfer_us
        worst = 0.0
        for page, die in zip(pages, self._batch_dies(pages, now_us)):
            op = self._submit(die, OP_PROGRAM, page, program_us, now_us)
            lat = op.projected_end - now_us + transfer_us
            if lat > worst:
                worst = lat
        return worst

    def erase(self, first_page: int, now_us: float) -> float:
        # No transfer_us: erase is command-only (DESIGN.md §9), matching
        # the analytic lane byte for byte.
        if now_us > self.now:
            self.now = now_us
        die = self._die_at(first_page, now_us)
        op = self._submit(die, OP_ERASE, first_page, self.timings.erase_us, now_us)
        return op.projected_end - now_us

    # ------------------------------------------------------------------
    def idle_at(self, now_us: float) -> bool:
        """True when every die's projected work completes by ``now_us``."""
        return all(die.busy_horizon() <= now_us for die in self.dies)

    def reset(self) -> None:
        """Clear all device state (new measurement epoch)."""
        super().reset()
        self._build()

    # -- introspection for tests/benchmarks ----------------------------
    def _caught_up(self) -> list[Die]:
        """Every die, advanced to the model clock."""
        for die in self.dies:
            die.advance(self.now)
        return self.dies

    @property
    def total_preemptions(self) -> int:
        return sum(die.preemptions for die in self._caught_up())

    @property
    def completed_ops(self) -> int:
        return sum(die.completed_ops for die in self._caught_up())

    def drain(self) -> int:
        """Run every die to idle (end of epoch); returns the events fired
        past the model clock, which ends at the last of them."""
        fired = sum(die.advance(inf) for die in self._caught_up())
        self.now = max(self.now, *(die.now for die in self.dies))
        return fired
