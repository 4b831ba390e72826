"""Determinism: identical seeds produce identical runs.

Reproducibility is a first-class property of this repository — every
random choice (workload generation, Nemo's statistical false positives,
the probabilistic flush policy) flows from explicit seeds, so two
replays with the same configuration must agree bit-for-bit on every
counter.

:class:`TestHashSeedDifferential` checks the whole program at once: two
fresh interpreters with different ``PYTHONHASHSEED`` values must print
the same figures.  A wall-clock read, an unseeded random draw or a
``set`` / ``str``-hash order that reaches a printed or simulated value
makes the two runs differ.  Run this file as a script to print the
fingerprint it compares.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.baselines.fairywren import FairyWrenCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.engines import ENGINE_NAMES, make_engine
from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.flash.devsim import make_latency_model
from repro.flash.geometry import FlashGeometry
from repro.harness.runner import LATENCY_PERCENTILES, replay
from repro.workloads.mixer import merged_twitter_trace

SRC = Path(__file__).resolve().parents[2] / "src"

#: The lanes no micro experiment selects: one batched replay per
#: engine, Log and Nemo on the columnar lane, Nemo on the event lane.
DIFFERENTIAL_REPLAYS = (
    *((name, "batched", None) for name in ENGINE_NAMES),
    ("log", "columnar", None),
    ("nemo", "columnar", None),
    ("nemo", "batched", "event"),
)


def geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=12, blocks_per_zone=1
    )


def run_nemo(seed):
    cache = NemoCache(
        geometry(),
        NemoConfig(
            flush_threshold=4,
            sgs_per_index_group=2,
            bf_capacity_per_set=20,
            rng_seed=seed,
        ),
    )
    trace = merged_twitter_trace(num_requests=30_000, wss_scale=1 / 1024, seed=5)
    result = replay(cache, trace)
    return cache, result


class TestDeterminism:
    def test_same_seed_identical_counters(self):
        a_cache, a = run_nemo(seed=11)
        b_cache, b = run_nemo(seed=11)
        assert a.final == b.final
        assert a_cache.fill_rates == b_cache.fill_rates
        assert a_cache.false_positive_reads == b_cache.false_positive_reads

    def test_different_fp_seed_changes_only_read_path(self):
        """The FP draw seed must not leak into placement or WA."""
        a_cache, a = run_nemo(seed=11)
        b_cache, b = run_nemo(seed=12)
        assert a_cache.fill_rates == b_cache.fill_rates
        assert a.final["host_write_bytes"] == b.final["host_write_bytes"]
        assert a.final["miss_ratio"] == b.final["miss_ratio"]

    def test_trace_seed_changes_everything(self):
        t1 = merged_twitter_trace(num_requests=1000, wss_scale=1 / 1024, seed=1)
        t2 = merged_twitter_trace(num_requests=1000, wss_scale=1 / 1024, seed=2)
        assert (t1.keys != t2.keys).any()

    def test_fw_deterministic(self):
        trace = merged_twitter_trace(num_requests=30_000, wss_scale=1 / 1024, seed=5)
        finals = []
        for _ in range(2):
            engine = FairyWrenCache(geometry(), log_fraction=0.1, op_ratio=0.1)
            finals.append(replay(engine, trace).final)
        assert finals[0] == finals[1]


class TestWearSpread:
    def test_nemo_fifo_wears_zones_evenly(self):
        """SG-pool FIFO rotation is naturally wear-levelling: no zone's
        erase count runs far ahead of the others."""
        cache, _ = run_nemo(seed=3)
        geo = cache.geometry
        erases = [
            sum(
                cache.device.nand.block_erases[b]
                for b in range(
                    z * geo.blocks_per_zone, (z + 1) * geo.blocks_per_zone
                )
            )
            for z in range(cache.pool_capacity_sgs)
        ]
        if max(erases) >= 3:
            assert max(erases) - min(erases) <= max(erases) / 2 + 1


def fingerprint() -> dict[str, str]:
    """sha256 of each micro experiment's table, plus every simulated
    value of each :data:`DIFFERENTIAL_REPLAYS` replay."""
    out = {}
    results = run_experiments(list(EXPERIMENTS), scale="micro", jobs=1)
    for exp_id, result in zip(EXPERIMENTS, results):
        out[exp_id] = hashlib.sha256(result.format().encode()).hexdigest()
    geo = FlashGeometry(page_size=4096, pages_per_block=64, num_blocks=32, blocks_per_zone=4)
    trace = merged_twitter_trace(num_requests=100_000, wss_scale=1 / 128, seed=0)
    for name, kernel, lane in DIFFERENTIAL_REPLAYS:
        engine = make_engine(name, geo)
        if lane is not None:
            engine.install_latency_model(make_latency_model(lane))
        result = replay(engine, trace, kernel=kernel, record_latency=lane is not None)
        values = dict(result.final)
        if lane is not None:
            values.update(result.latency.percentiles(LATENCY_PERCENTILES))
        for key, value in values.items():
            out[f"{name}/{kernel}/{lane}/{key}"] = repr(value)
    return out


class TestHashSeedDifferential:
    def test_hash_seed_changes_no_output(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, __file__],
                env={**env, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("1", "12345")
        ]
        outputs = [child.communicate(timeout=600)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        a, b = (json.loads(output) for output in outputs)
        assert set(EXPERIMENTS) <= a.keys()
        assert len(a) > len(EXPERIMENTS) + len(DIFFERENTIAL_REPLAYS)
        assert a == b


if __name__ == "__main__":
    json.dump(fingerprint(), sys.stdout, indent=0, sort_keys=True)
