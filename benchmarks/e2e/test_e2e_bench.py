"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1's ``testpaths``
stays ``tests/``).  Everything here uses ``--quick`` inputs.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import scenarios  # noqa: E402
from compare import compare  # noqa: E402
from spans import SpanRecorder  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_quick(workload: str, seed: int = 0, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )  # fmt: skip
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_prints_exactly_the_declared_metrics(workload, trace):
    result = run_quick(workload, trace=trace)
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_manifest_names_and_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(scenarios.WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names + list(run.WORKLOAD_NAMES))
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def test_second_seed_changes_nemo_wa():
    first, second = (run_quick("fig12_wa", seed=s)["metrics"]["nemo_wa"]["value"] for s in (0, 1))
    assert first != second


@pytest.fixture(scope="module")
def fig12_pass():
    workload = scenarios.Fig12WA(0, quick=True)
    workload.setup()
    return workload, workload.run_pass()


def test_tampered_final_flips_failed(fig12_pass):
    workload, good = fig12_pass
    assert run.outcome([good, good], run.verify(workload, [good, good], {}))["failed"] == 0
    for key, value in (("hits", 10**9), ("flash_write_bytes", 0), ("wa", float("nan"))):
        bad = copy.deepcopy(good)
        bad.cell("Nemo").final[key] = value
        result = run.outcome([good, bad], run.verify(workload, [good, bad], {}))
        assert not result["correct"]
        assert 0 < result["failed"] < result["attempted"]


def test_outputs_that_differ_between_passes_fail(fig12_pass):
    workload, good = fig12_pass
    drifted = copy.deepcopy(good)
    drifted.cell("KG").final["gc_relocated_pages"] += 1
    problems = run.verify(workload, [good, drifted], {})
    assert list(problems) == ["KG"]


class TestColdCaches:
    """A warm ``trace._kernel_cache`` would silently measure a cache hit."""

    def test_reused_trace_is_markedly_faster_than_a_fresh_wrapper(self):
        workload = scenarios.ColumnarFill(0, quick=True)
        workload.setup()

        def columnar_replay(trace):
            engine = workload.build("Nemo", workload.fit_geometry)
            t0 = perf_counter()
            scenarios.replay(engine, trace, kernel="columnar")
            return perf_counter() - t0

        reused = workload.fresh_trace()
        columnar_replay(reused)
        warm = min(columnar_replay(reused) for _ in range(3))
        cold = min(columnar_replay(workload.fresh_trace()) for _ in range(3))
        assert reused._kernel_cache and warm < 0.8 * cold

    def test_no_timed_pass_reuses_a_trace(self, monkeypatch):
        workload = scenarios.ColumnarFill(0, quick=True)
        workload.setup()
        seen = []

        def recording_replay(engine, trace, **kwargs):
            assert not trace._kernel_cache and not trace._column_cache
            seen.append(trace)
            return real_replay(engine, trace, **kwargs)

        real_replay = scenarios.replay
        monkeypatch.setattr(scenarios, "replay", recording_replay)
        workload.run_pass()
        workload.run_pass()
        assert len(seen) == 4 and len({id(t) for t in seen}) == 4


class TestSpans:
    def test_children_plus_self_equal_the_span(self):
        rec = SpanRecorder()

        class Engine:
            def lookup_many(self, keys):
                return len(keys)

        engine = Engine()
        rec.wrap(engine, "lookup_many", "engine.lookup_many", count_items=True)
        with rec.span("pass", cell="pass"):
            with rec.span("replay", cell="Nemo"):
                assert engine.lookup_many([1, 2, 3]) == 3
                engine.lookup_many([4])
        totals = rec.totals()
        replay, calls = totals["Nemo", "replay"], totals["Nemo", "engine.lookup_many"]
        assert type(engine) is Engine and calls["calls"] == 2
        assert rec.items["Nemo", "engine.lookup_many"] == 4
        assert replay["total_s"] == pytest.approx(replay["self_s"] + calls["total_s"])
        root = totals["pass", "pass"]["total_s"]
        assert rec.self_sum("pass") == pytest.approx(root)


class TestCompare:
    BOUND = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "wall_s")
    INSIDE, OUTSIDE = 6.0 * (1 + BOUND / 2), 6.0 * (1 + 2 * BOUND)

    @staticmethod
    def document(wall, spread=0.01, wa=1.5, failed=0):
        return {
            "seed": 0,
            "quick": False,
            "workloads": {
                "fig12_wa": {
                    "failed": failed,
                    "metrics": {
                        "wall_s": {"value": wall, "spread": spread, "samples": [wall]},
                        "nemo_wa": {"value": wa},
                    },
                }
            },
        }

    def verdict(self, tmp_path, a, b):
        for name, doc in (("a", a), ("b", b)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        return compare(tmp_path / "a.json", tmp_path / "b.json", MANIFEST)

    def test_within_bound_passes(self, tmp_path):
        assert self.verdict(tmp_path, self.document(6.0), self.document(self.INSIDE)) == 0

    def test_breach_exits_nonzero(self, tmp_path):
        assert self.verdict(tmp_path, self.document(6.0), self.document(self.OUTSIDE)) == 1

    def test_wide_pass_spread_is_unresolved_not_a_breach(self, tmp_path, capsys):
        noisy = self.document(self.OUTSIDE, spread=2 * self.BOUND)
        assert self.verdict(tmp_path, self.document(6.0), noisy) == 0
        assert "unresolved" in capsys.readouterr().out

    def test_changed_simulated_metric_and_new_failures_breach(self, tmp_path):
        assert self.verdict(tmp_path, self.document(6.0), self.document(6.0, wa=1.6)) == 1
        assert self.verdict(tmp_path, self.document(6.0), self.document(6.0, failed=5)) == 1
