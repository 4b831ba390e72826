"""Latency and interference model for simulated flash devices.

The paper's Figure 15 result — Nemo's stable p50/p99/p9999 read latency
versus FairyWREN's erratic tails — is attributed (§5.2) to write
interference: FW issues continuous small 4 KiB RMW writes that stall
subsequent reads, while Nemo writes in occasional large batches that are
absorbed by idle periods and parallel zones.

We model that mechanism with a multi-channel service-time model:

- The device has ``num_channels`` independent channels; physical page
  ``p`` is served by channel ``p % num_channels`` (interleaved striping,
  the standard SSD layout).
- Each channel is a single server with a ``busy_until`` horizon.  An
  operation arriving at time ``t`` starts at ``max(t, busy_until)`` and
  occupies the channel for its NAND service time.
- Reads take :attr:`NandTimings.read_us`; programs take
  :attr:`NandTimings.program_us`; erases :attr:`NandTimings.erase_us`.
  A program or erase in front of a read delays the read — the
  read-behind-write interference the paper names — but modern NAND
  supports program- and erase-suspend with read prioritisation, so a
  read waits at most ``suspend_floor_us`` behind pending
  program/erase work (not the whole backlog).  The probability that a
  read hits such a window scales with the engine's write duty cycle,
  which is how FairyWREN's 15× write traffic turns into noisy tails
  while Nemo's occasional batched flushes leave reads clean.

Timestamps are microseconds on a simulated clock supplied by the caller
(the harness advances it using the workload's arrival rate).

The model is event-batched: channel horizons live in a flat
``array('d')`` (one double per channel) with the suspendability flags in
a parallel ``bytearray``, and :meth:`LatencyModel.read_many` /
:meth:`LatencyModel.program_many` run one inlined loop over the batch —
no per-page method dispatch, no intermediate event objects — while
computing exactly the same completion times as the scalar methods.
Experiments that never consult timing do not pay for the model at all:
every engine read goes through ``ZNSDevice.read`` / ``read_many``, which
skip the model when none is attached, so this module is bypassed
entirely.  ``ZNSDevice.read_page`` is never timed, with or without a
model: it is only the HLog's victim scan.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from math import isfinite

from repro.errors import ConfigError


@dataclass(frozen=True)
class NandTimings:
    """NAND operation service times in microseconds.

    Defaults follow published TLC figures (read ~60–100 µs, program
    ~300–800 µs, erase ~3–10 ms) in the middle of the range; the ZN540's
    4 KiB random-read latency is in the tens of microseconds including
    the controller, which the channel model reproduces under low load.
    """

    read_us: float = 65.0
    program_us: float = 350.0
    erase_us: float = 3500.0
    #: Controller + interconnect overhead added to every host op.
    transfer_us: float = 12.0
    #: With program/erase-suspend and read prioritisation, a read never
    #: waits behind more than this residual of in-flight write work.
    suspend_floor_us: float = 180.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isfinite(value) and value >= 0.0):
                raise ConfigError(f"{f.name} must be finite and >= 0, got {value!r}")


@dataclass
class LatencyModel:
    """Per-channel busy-time model producing per-op completion latencies.

    Parameters
    ----------
    num_channels:
        Independent NAND channels (parallel service units).
    timings:
        NAND service times.
    read_cache_pages:
        SSD-controller read buffer (LRU): a page read again while still
        buffered costs only the transfer time and occupies no channel.
        Real controllers carry tens of MB of such buffer; it is what
        keeps repeatedly-read hot pages (e.g. popular PBFG index pages)
        from serialising on one die.  0 disables it.
    """

    num_channels: int = 8
    timings: NandTimings = field(default_factory=NandTimings)
    read_cache_pages: int = 64
    #: Per-channel next-free timestamps (µs), one double per channel.
    _busy_until: array[float] = field(init=False, repr=False)
    #: Nonzero while the pending channel work is suspendable (program/
    #: erase or background reads) so foreground reads jump the backlog.
    _busy_is_program: bytearray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ConfigError("num_channels must be positive")
        if self.read_cache_pages < 0:
            raise ConfigError("read_cache_pages must be non-negative")
        self._busy_until = array("d", [0.0]) * self.num_channels
        self._busy_is_program = bytearray(self.num_channels)
        from collections import OrderedDict

        self._read_cache: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------------
    def channel_of(self, page: int) -> int:
        """Channel serving physical page ``page`` (interleaved striping)."""
        return page % self.num_channels

    def _start_time(self, channel: int, now_us: float, *, is_read: bool) -> float:
        busy = self._busy_until[channel]
        if busy <= now_us:
            return now_us
        if is_read and self._busy_is_program[channel]:
            # Program/erase-suspend with read priority: the read begins
            # after at most the suspend floor, not the whole write
            # backlog.
            return min(busy, now_us + self.timings.suspend_floor_us)
        return busy

    def read(self, page: int, now_us: float, *, background: bool = False) -> float:
        """Issue a page read at ``now_us``; return its latency in µs.

        ``background`` marks asynchronous engine work (e.g. Nemo's
        writeback reads, done by a dedicated thread in the paper's
        implementation): it occupies the channel but stays suspendable,
        so foreground reads are not stuck behind it.
        """
        t = self.timings
        cap = self.read_cache_pages
        if cap:
            cache = self._read_cache
            if page in cache:
                cache.move_to_end(page)
                return t.transfer_us
            cache[page] = None
            while len(cache) > cap:
                cache.popitem(last=False)
        # ``_start_time`` inlined: this is every timed GET's flash read.
        ch = page % self.num_channels
        busy = self._busy_until
        b = busy[ch]
        if b <= now_us:
            start = now_us
        elif self._busy_is_program[ch]:
            # Program/erase-suspend with read priority (see _start_time).
            preempt_at = now_us + t.suspend_floor_us
            start = b if b < preempt_at else preempt_at
        else:
            start = b
        finish = start + t.read_us
        # Reads do not extend a suspended program's horizon beyond the
        # read itself (the program resumes and re-occupies its remainder).
        if finish >= b:
            busy[ch] = finish
            self._busy_is_program[ch] = background
        return finish - now_us + t.transfer_us

    def read_many(
        self, pages: list[int], now_us: float, *, background: bool = False
    ) -> float:
        """Issue parallel reads; return the latency of the slowest.

        Models Nemo's parallel candidate-SG reads (§5.5): reads on
        distinct channels overlap, so k parallel reads cost ~1 read
        unless they collide on a channel.

        Fast lane: one loop over the batch with every per-page step of
        :meth:`read` inlined (cache probe, suspend logic, horizon
        update), byte-identical to calling :meth:`read` per page and
        taking the max.
        """
        if not pages:
            return 0.0
        t = self.timings
        read_us = t.read_us
        transfer_us = t.transfer_us
        preempt_at = now_us + t.suspend_floor_us
        nch = self.num_channels
        busy = self._busy_until
        flags = self._busy_is_program
        cap = self.read_cache_pages
        cache = self._read_cache
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
            ch = page % nch
            b = busy[ch]
            if b <= now_us:
                finish = now_us + read_us
            elif flags[ch]:
                finish = (b if b < preempt_at else preempt_at) + read_us
            else:
                finish = b + read_us
            if finish >= b:
                busy[ch] = finish
                flags[ch] = background
            lat = finish - now_us + transfer_us
            if lat > worst:
                worst = lat
        return worst

    def program(self, page: int, now_us: float) -> float:
        """Issue a page program at ``now_us``; return its latency in µs."""
        ch = page % self.num_channels
        start = self._start_time(ch, now_us, is_read=False)
        finish = start + self.timings.program_us
        self._busy_until[ch] = finish
        self._busy_is_program[ch] = True
        return finish - now_us + self.timings.transfer_us

    def program_many(self, pages: list[int], now_us: float) -> float:
        """Issue a batched multi-page program (e.g. an SG flush).

        Pages stripe across channels, so an N-page batch on C channels
        costs ~ceil(N/C) program times on the busiest channel.  Returns
        the completion latency of the batch.

        Fast lane: inlined like :meth:`read_many` — byte-identical to
        per-page :meth:`program` calls.
        """
        if not pages:
            return 0.0
        t = self.timings
        program_us = t.program_us
        transfer_us = t.transfer_us
        nch = self.num_channels
        busy = self._busy_until
        flags = self._busy_is_program
        worst = 0.0
        for page in pages:
            ch = page % nch
            b = busy[ch]
            finish = (b if b > now_us else now_us) + program_us
            busy[ch] = finish
            flags[ch] = True
            lat = finish - now_us + transfer_us
            if lat > worst:
                worst = lat
        return worst

    def erase(self, first_page: int, now_us: float) -> float:
        """Issue a block/zone erase; returns its latency in µs.

        Erases are suspendable like programs (``_busy_is_program`` marks
        "suspendable write work"), so reads behind them are bounded by
        the suspend floor.

        Unlike reads/programs the returned latency carries no
        ``transfer_us``: an erase is command-only — there is no host
        data phase to move over the interconnect.  This asymmetry is
        deliberate (DESIGN.md §9), shared by both lanes, and pinned by
        ``tests/flash/test_latency.py::TestErasePath``.
        """
        ch = first_page % self.num_channels
        start = self._start_time(ch, now_us, is_read=False)
        finish = start + self.timings.erase_us
        self._busy_until[ch] = finish
        self._busy_is_program[ch] = True
        return finish - now_us

    # ------------------------------------------------------------------
    def idle_at(self, now_us: float) -> bool:
        """True when no channel is busy at ``now_us``."""
        return all(b <= now_us for b in self._busy_until)

    def reset(self) -> None:
        """Clear all channel state (new measurement epoch)."""
        for i in range(self.num_channels):
            self._busy_until[i] = 0.0
            self._busy_is_program[i] = 0
        self._read_cache.clear()
