"""Exception hierarchy for the Nemo reproduction.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch the whole family with one clause.  Device-level errors
mirror the failure modes of real NVMe / ZNS devices (writing to a full
zone, reading an unwritten page, erasing an open zone) so that engine bugs
surface as loud, specific errors instead of silently corrupt statistics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class PoolFallbackWarning(RuntimeWarning):
    """The worker pool was unusable, so cells re-ran serially in-process.

    Emitted once per ``harness.parallel.run_cells`` call that degrades
    (a worker died, spawn failed, a payload would not pickle), naming
    the cause.  Results are unchanged — cells are pure — only the wall
    time is.
    """


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid or inconsistent with the geometry."""


class DeviceError(ReproError):
    """Base class for flash-device errors."""


class OutOfSpaceError(DeviceError):
    """The device (or a zone / FTL pool) has no writable space left."""


class ZoneStateError(DeviceError):
    """An operation was attempted in an illegal zone state.

    Examples: writing past the write pointer, appending to a FULL zone,
    resetting an offline zone.
    """


class AlignmentError(DeviceError, ValueError):
    """An I/O was not aligned to the device's page or zone geometry."""


class ReadError(DeviceError):
    """A read targeted an unwritten, trimmed, or erased page."""


class UncorrectableReadError(ReadError):
    """A read kept failing after the bounded retry budget was exhausted.

    Only raised when the installed fault plan marks read failures as
    fatal; by default an exhausted retry budget escalates to the ECC /
    parity rescue path and the read succeeds (at extra accounting cost).
    """


class DeviceRetiredError(DeviceError):
    """The device ran out of spare blocks for bad-block remapping.

    Grown bad blocks (program/erase failures) are remapped to a hidden
    spare pool; once the pool is exhausted the device has reached end of
    life and further block retirements are unrecoverable.
    """


class FTLError(DeviceError):
    """The flash translation layer reached an inconsistent state."""


class CacheError(ReproError):
    """Base class for cache-engine errors."""


class ObjectTooLargeError(CacheError, ValueError):
    """An object cannot fit the engine's set/page/segment granularity."""


class EngineStateError(CacheError):
    """A cache engine was driven through an illegal state transition."""


class TraceError(ReproError, ValueError):
    """A workload trace is malformed or inconsistent."""
