"""System runs: spec identity, the union sample layout, fig13's window
rebuild and fig04's first-GC snapshot all reproduce what a dedicated
replay records."""

import json
import math
import pickle
from collections import Counter

import pytest

from repro.core.config import NemoConfig
from repro.errors import ConfigError
from repro.experiments.common import nemo_config, scale_params, twitter_trace
from repro.experiments.systems import (
    SAMPLE_DIVISORS,
    nemo_system,
    run_system,
    system,
)
from repro.harness.runner import replay
from repro.workloads.trace import OP_GET, OP_SET

#: Short enough to replay in well under a second at micro geometry.
N = 20_000


@pytest.fixture(scope="module")
def fw_spec():
    return system("fw", "micro", num_requests=N, log_fraction=0.05, op_ratio=0.05)


@pytest.fixture(scope="module")
def fw_record(fw_spec):
    return run_system(fw_spec)


class TestSpec:
    def test_default_nemo_spellings_are_one_spec(self):
        ablation = NemoConfig.ablation(buffered=True, delayed=True, writeback=True)
        specs = {
            nemo_system("micro"),
            nemo_system("micro", NemoConfig()),
            nemo_system("micro", nemo_config(flush_threshold=8)),
            nemo_system("micro", nemo_config(cached_index_ratio=0.5)),
            nemo_system("micro", ablation),
        }
        assert len(specs) == 1

    def test_parameters_scale_and_length_distinguish(self):
        base = system("fw", "micro", log_fraction=0.05, op_ratio=0.05)
        assert base != system("fw", "micro", log_fraction=0.05, op_ratio=0.5)
        assert base != system("fw", "small", log_fraction=0.05, op_ratio=0.05)
        assert base != system("fw", "micro", num_requests=N, log_fraction=0.05, op_ratio=0.05)
        assert base.num_requests == scale_params("micro")[1]
        assert base.cell_id == system("fw", "micro", op_ratio=0.05, log_fraction=0.05).cell_id
        assert base.cell_id != nemo_system("micro").cell_id

    def test_unknown_kind_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            system("lru", "micro")

    def test_default_nemo_builds_the_simulator_config(self):
        # Nemo specs store their difference from NemoConfig(); building
        # one must start from that same config.
        geometry, _ = scale_params("micro")
        assert nemo_system("micro").params == ()
        assert nemo_system("micro").build(geometry).config == nemo_config()
        ablation = NemoConfig.ablation(buffered=False, delayed=True, writeback=False)
        assert nemo_system("micro", ablation).build(geometry).config == ablation


class TestRecord:
    def test_series_match_a_replay_on_that_layout(self, fw_spec, fw_record):
        geometry, _ = scale_params("micro")
        trace = twitter_trace(N)
        metrics = ("wa", "miss_ratio", "p_fraction")
        for divisor in SAMPLE_DIVISORS:
            r = replay(
                fw_spec.build(geometry),
                trace,
                sample_every=max(1, N // divisor),
                sampled_metrics=metrics,
            )
            for m in metrics:
                expected = r.series[m].as_rows()
                got = fw_record.series(m, divisor)
                assert [x for x, _ in got] == [x for x, _ in expected]
                assert all(
                    a == b or (math.isnan(a) and math.isnan(b))
                    for (_, a), (_, b) in zip(got, expected)
                ), (m, divisor)
            assert json.dumps(fw_record.final) == json.dumps(r.final)

    def test_unsampled_divisor_is_config_error(self, fw_record):
        with pytest.raises(ConfigError):
            fw_record.series("wa", 100)

    def test_equality_survives_pickling_with_nan(self, fw_record):
        # FW's p series starts NaN (no RMW yet); a determinism check
        # comparing serial and pooled records must still call them equal.
        assert math.isnan(fw_record.samples["p_fraction"][0])
        assert pickle.loads(pickle.dumps(fw_record)) == fw_record


def _scalar_early_snapshot(engine, trace) -> Counter:
    """Oracle: replay request by request; return a copy of passive_hist
    after the first request that ran set-region GC (steady if none did)."""
    early: Counter | None = None
    ops, keys, sizes = trace.ops, trace.keys, trace.sizes
    for i in range(len(trace)):
        key = int(keys[i])
        size = int(sizes[i])
        if ops[i] == OP_GET:
            if not engine.lookup(key, size).hit:
                engine.insert(key, size)
        elif ops[i] == OP_SET:
            engine.insert(key, size)
        if early is None and engine.hset.gc_runs > 0:
            early = Counter(engine.hset.passive_hist)
    return early if early is not None else Counter(engine.hset.passive_hist)


class TestEarlyPassiveSnapshot:
    """The record's end-of-round snapshot equals the per-request one."""

    @staticmethod
    def _check(spec):
        geometry, _ = scale_params(spec.scale)
        trace = twitter_trace(spec.num_requests)
        engine = spec.build(geometry)
        early = _scalar_early_snapshot(engine, trace)
        x = run_system(spec).extras
        assert x["early_passive_hist"] == early
        assert x["passive_hist"] == engine.hset.passive_hist
        # L2SWA(P) is NaN until a set is rewritten.
        assert json.dumps(x["l2swa_p"]) == json.dumps(engine.l2swa("passive"))
        assert x["model_l2swa_p"] == engine.model(trace.mean_request_size).l2swa_passive
        return engine

    @pytest.mark.parametrize(
        "kind,log_fraction,op_ratio",
        [
            ("fw", 0.05, 0.05),
            ("fw", 0.20, 0.05),
            ("fw", 0.05, 0.50),
            ("kg", 0.05, 0.05),
        ],
    )
    def test_matches_the_scalar_loop(self, kind, log_fraction, op_ratio):
        spec = system(kind, "micro", log_fraction=log_fraction, op_ratio=op_ratio)
        assert self._check(spec).hset.gc_runs > 0

    def test_no_gc_falls_back_to_steady(self, fw_spec):
        engine = self._check(fw_spec)
        assert engine.hset.gc_runs == 0 and engine.early_passive_hist is None
        assert sum(engine.hset.passive_hist.values()) > 0
