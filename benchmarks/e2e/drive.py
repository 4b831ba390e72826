"""Drive cells: the flash layers' public API driven directly.

The replay workloads reach ``flash/`` only through an engine, so a
change to the FTL, the zone device or a latency lane shows there diluted
by the engine's own work.  These cells (traced run only, 1-2 s each)
isolate each device layer; their inputs derive from ``--seed``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.experiments.common import standard_geometry
from repro.flash import LatencyModel, PageMapFTL, ZNSDevice
from repro.flash.devsim import make_latency_model
from repro.hashing import splitmix64_array

FTL_OVERWRITES = 100_000
FTL_OP_RATIO = 0.05
ZNS_PAGES = 1_500_000
LATENCY_OPS = 300_000


def ftl(seed: int) -> dict[str, float]:
    """Uniform-random single-page overwrites of a full page-mapping FTL
    at 5 % over-provisioning: greedy-GC steady state, whose DLWA is an
    independent check against Dayan & Bonnet's greedy-GC expectation."""
    device = PageMapFTL(standard_geometry(), op_ratio=FTL_OP_RATIO)
    for lba in range(device.num_lbas):
        device.write(lba, None)
    lbas = np.random.default_rng(seed).integers(
        0, device.num_lbas, size=FTL_OVERWRITES
    ).tolist()
    before = device.stats.snapshot()
    t0 = perf_counter()
    write = device.write
    for lba in lbas:
        write(lba, None)
    wall = perf_counter() - t0
    after = device.stats.snapshot()
    flash = after["flash_write_bytes"] - before["flash_write_bytes"]
    host = after["host_write_bytes"] - before["host_write_bytes"]
    device.check_invariants()
    return {
        "flash.ftl.drive_pages_per_s": FTL_OVERWRITES / wall,
        "flash.ftl.drive_dlwa": flash / host,
        "flash.ftl.drive_gc_relocated_pages": after["gc_relocated_pages"]
        - before["gc_relocated_pages"],
    }


def zns() -> dict[str, float]:
    """Fill-and-reset cycles over every zone through the hot-path
    single-page append."""
    device = ZNSDevice(standard_geometry())
    per_zone = device.geometry.pages_per_zone
    t0 = perf_counter()
    written = 0
    while written < ZNS_PAGES:
        for zone in range(device.num_zones):
            for _ in range(per_zone):
                device.append_page(zone, None)
            device.reset_zone(zone)
            written += per_zone
    return {"flash.zns.drive_pages_per_s": written / (perf_counter() - t0)}


def latency_lanes(seed: int) -> dict[str, float]:
    """The same seeded 90/10 read/program stream, 20 us apart, timed on
    the analytic and on the discrete-event lane."""
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, standard_geometry().num_pages, size=LATENCY_OPS).tolist()
    is_program = (rng.random(LATENCY_OPS) < 0.1).tolist()
    rates = {}
    for lane, model in (
        ("latency", LatencyModel(num_channels=8)),
        ("devsim", make_latency_model("event", num_channels=8)),
    ):
        read, program = model.read, model.program
        now_us = 0.0
        t0 = perf_counter()
        for page, prog in zip(pages, is_program):
            if prog:
                program(page, now_us)
            else:
                read(page, now_us)
            now_us += 20.0
        rates[lane] = LATENCY_OPS / (perf_counter() - t0)
    return {
        "flash.latency.drive_ops_per_s": rates["latency"],
        "flash.devsim.drive_ops_per_s": rates["devsim"],
        "flash.devsim.event_over_analytic": rates["devsim"] / rates["latency"],
    }


def splitmix(keys: np.ndarray) -> dict[str, float]:
    """The vectorised key hash behind ``Trace.columns``."""
    t0 = perf_counter()
    for seed in range(8):
        splitmix64_array(keys, seed)
    return {"hashing.splitmix_mkeys_per_s": 8 * len(keys) / (perf_counter() - t0) / 1e6}
