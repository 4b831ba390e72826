"""Runtime conservation of flash accounting: NAND counters vs FlashStats.

``FlashStats`` is the host-visible ledger every WA, DLWA and read
amplification figure is computed from; the ``NandArray`` counters are
what the medium actually did.  The two must agree exactly, on every
engine and every replay lane, including once the device wraps and the
engine reclaims (zone resets, FTL GC, HLog migration scans): a program,
erase or read that bypasses the ledger would silently bias every ratio
built on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines import ENGINE_NAMES, make_engine
from repro.harness.runner import REPLAY_KERNELS, replay
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace

#: Engine knobs sized for ``small_geometry`` (the factory defaults
#: target paper-scale devices).
ENGINE_PARAMS = {"nemo": {"flush_threshold": 4, "sgs_per_index_group": 3}}


def _reclaiming_trace() -> Trace:
    """A mixed trace whose working set is several times the 4 MiB
    ``small_geometry`` device, so every engine reclaims flash."""
    n = 30_000
    rng = np.random.default_rng(11)
    return Trace(
        ops=rng.choice(
            np.array([OP_GET, OP_SET, OP_DELETE], dtype=np.uint8),
            size=n,
            p=[0.5, 0.45, 0.05],
        ),
        keys=rng.integers(0, 20_000, size=n),
        sizes=rng.integers(100, 1_000, size=n),
        name="reclaiming",
    )


def _nand(engine):
    """The engine's NAND array (Set sits behind a page-mapping FTL)."""
    device = engine.device
    ftl = getattr(device, "ftl", None)
    return device.nand if ftl is None else ftl.nand


@pytest.mark.parametrize("kernel", REPLAY_KERNELS)
@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_nand_counters_match_flash_stats(name, kernel, small_geometry):
    engine = make_engine(name, small_geometry, **ENGINE_PARAMS.get(name, {}))
    replay(engine, _reclaiming_trace(), kernel=kernel)
    stats = engine.stats
    nand = _nand(engine)
    page_size = small_geometry.page_size

    assert stats.erase_ops > 0, "trace too small: the engine never reclaimed"
    assert nand.program_count * page_size == stats.flash_write_bytes
    assert nand.erase_count == stats.erase_ops
    assert nand.read_count * page_size == stats.flash_read_bytes
