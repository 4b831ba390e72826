#!/usr/bin/env python3
"""A tour of the flash substrate: ZNS vs conventional SSD behaviour.

Shows, without any cache on top, the device-level mechanics the paper's
analysis rests on:

1. ZNS zones: sequential-write-required, explicit reset, DLWA ≡ 1.
2. Conventional SSD: in-place overwrites trigger internal GC, and the
   resulting DLWA falls as over-provisioning grows — the reason the
   Set baseline burns 50 % of its flash on OP (Table 4).
3. The read/program interference behind Figure 15's tail latencies.

Run:  python examples/zns_device_tour.py
"""

from repro import FlashGeometry, LatencyModel, PageMapFTL, ZNSDevice
from repro.harness.report import format_table


def zns_demo() -> None:
    print("=== 1. ZNS zones ===")
    geo = FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=2
    )
    dev = ZNSDevice(geo)
    pages, _ = dev.append_many(0, [f"obj-{i}" for i in range(8)])
    print(f"appended 8 pages to zone 0 at pages {pages[0]}..{pages[-1]}")
    print(f"zone 0 state: {dev.zone_state(0).value}, "
          f"write pointer {dev.zones[0].write_pointer}")
    dev.reset_zone(0)
    print(f"after reset: {dev.zone_state(0).value}")
    print(f"DLWA: {dev.stats.dlwa:.2f} (always 1.0 — no internal GC)\n")


def conventional_demo() -> None:
    print("=== 2. conventional SSD: OP vs device-level WA ===")
    import random

    rows = []
    for op in (0.50, 0.25, 0.10):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=32, num_blocks=32, blocks_per_zone=1
        )
        ssd = PageMapFTL(geo, op_ratio=op)
        # Uniform *random* overwrites: the workload shape that forces GC
        # to relocate valid pages (sequential overwrites are its best
        # case and would show DLWA = 1).
        rng = random.Random(7)
        for i in range(12 * ssd.num_lbas):
            ssd.write(rng.randrange(ssd.num_lbas), i)
        rows.append([f"{op:.0%}", ssd.num_lbas, ssd.stats.dlwa, ssd.stats.gc_runs])
    print(format_table(["OP", "usable LBAs", "DLWA", "GC runs"], rows))
    print("more OP -> fewer relocations -> lower DLWA (but less usable flash)\n")


def interference_demo() -> None:
    print("=== 3. read-behind-write interference (Fig. 15 mechanism) ===")
    model = LatencyModel(num_channels=8)
    clean = model.read(1, now_us=0.0)
    model.reset()
    model.program(0, now_us=0.0)          # a 4 KiB RMW write, FW-style
    stalled = model.read(0, now_us=1.0)   # read right behind it
    model.reset()
    batch = model.program_many(list(range(64)), now_us=0.0)  # an SG flush
    model_read_after = model.read(100, now_us=batch + 1.0)
    print(f"unloaded read                : {clean:7.1f} us")
    print(f"read stalled behind a program: {stalled:7.1f} us")
    print(f"read after a batched SG flush: {model_read_after:7.1f} us")
    print(
        "continuous small writes keep stalling reads (FairyWREN's noisy"
        " tails);\nbatched flushes leave long clean windows (Nemo's flat"
        " p99)."
    )


def main() -> None:
    zns_demo()
    conventional_demo()
    interference_demo()


if __name__ == "__main__":
    main()
