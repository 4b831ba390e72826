"""Smoke tests: every registered experiment runs end-to-end at micro
scale and produces a well-formed, formatted result.

Shape assertions here are deliberately loose — the EXPERIMENTS.md runs
use larger scales — but each experiment's *headline relation* is still
checked where it is robust even at micro scale.
"""

import hashlib
import math
from collections import Counter

import pytest

from repro.experiments import EXPERIMENTS, run_experiment, systems
from repro.experiments.registry import _module, run_experiments


@pytest.fixture(scope="module")
def results():
    return {exp_id: run_experiment(exp_id, scale="micro") for exp_id in EXPERIMENTS}


class TestAllRunAndFormat:
    def test_every_experiment_formats(self, results):
        for exp_id, result in results.items():
            text = result.format()
            assert isinstance(text, str) and len(text) > 40, exp_id


class TestHeadlineShapes:
    def test_fig04_l2swa_positive(self, results):
        rows = results["fig04"].rows
        steady = [r for r in rows if r["phase"] == "steady"]
        assert steady
        for r in steady:
            assert r["l2swa_p_measured"] > 1.0
            assert r["l2swa_p_model"] > 1.0

    def test_fig04_table_pinned(self, results):
        """fig04 reads its early histogram from the shared FW records;
        the table is the one the per-request scalar replay printed."""
        text = results["fig04"].format()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "af8bd196b24c6292cf942abeac36d1914410e8f7b53c0175c9bd54b1363e9335"
        )

    def test_fig05_reports_both_paths(self, results):
        for r in results["fig05"].rows:
            assert r["mean_passive"] > 0

    def test_fig06_p_in_range(self, results):
        for op, p in results["fig06"].final_p.items():
            assert 0.0 <= p <= 1.0 or math.isnan(p), op

    def test_fig06_more_op_means_more_passive(self, results):
        p = results["fig06"].final_p
        assert p[0.50] >= p[0.05] - 0.05

    def test_fig08_skew_below_one(self, results):
        for r in results["fig08"].rows:
            assert 0.0 < r["remaining_fill"] < 1.0
            assert 0.0 < r["model_fill"] < 1.0

    def test_fig08_more_sets_lower_fill(self, results):
        rows = results["fig08"].rows
        by_key = {
            (r["workload"], r["num_sets"], r["set_size"]): r["remaining_fill"]
            for r in rows
        }
        assert by_key[("synthetic", 1024, 4096)] < by_key[("synthetic", 256, 4096)] + 0.1

    def test_fig08_table_pinned(self, results):
        """fig08 slices every budget's trace from its longest one; the
        table is the one per-budget generation printed."""
        text = results["fig08"].format()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "437bd577a2b3c6a1df946cbe3043eff08831e2af0a11711fede3031f2865da3c"
        )

    def test_fig12_nemo_beats_fw(self, results):
        wa = {r["engine"]: r["wa"] for r in results["fig12"].main_rows}
        assert wa["Nemo"] < wa["FW"]
        assert wa["FW"] < wa["KG"]
        assert wa["Log"] < 2.0

    def test_fig12_variants_present(self, results):
        configs = {r["config"] for r in results["fig12"].variant_rows}
        assert {"FW Log20-OP5", "FW Log5-OP50", "Nemo"} <= configs

    def test_fig13_nemo_writes_less(self, results):
        rows = {r["engine"]: r for r in results["fig13"].rows}
        assert rows["Nemo"]["mean_mib_per_min"] <= rows["FW"]["mean_mib_per_min"]

    def test_fig14_series_collected(self, results):
        assert set(results["fig14"].wa_series) == {
            "Nemo",
            "FW Log5-OP5",
            "FW Log20-OP5",
            "FW Log5-OP50",
        }
        for series in results["fig14"].wa_series.values():
            assert len(series) > 10

    def test_fig15_percentiles_ordered(self, results):
        for name, w in results["fig15"].windows.items():
            for phase in ("before", "after"):
                p = w[phase]
                assert p[50.0] <= p[99.0] <= p[99.99], (name, phase)

    def test_fig16_misses_comparable(self, results):
        final = results["fig16"].final_miss
        assert abs(final["Nemo"] - final["FW"]) < 0.25

    def test_fig17_ordering(self, results):
        fills = {r["variant"]: r["fill"] for r in results["fig17"].rows}
        assert fills["naive"] < fills["B+P"]
        assert fills["naive"] < fills["B"]
        assert fills["naive"] < fills["P"]
        assert fills["B+P+W"] >= fills["B+P"] - 0.02

    def test_fig18_wa_decreases_with_threshold(self, results):
        rows = results["fig18"].rows
        wa_by_pth = {r["pth"]: r["wa"] for r in rows}
        assert wa_by_pth[4096] < wa_by_pth[1]

    def test_fig19a_skew_survives_hashing(self, results):
        for cluster, share in results["fig19"].top30_share.items():
            assert share > 0.35, cluster  # well above the uniform 0.30

    def test_fig19b_monotone_in_cached_ratio(self, results):
        ratios = results["fig19"].pool_ratio
        assert ratios[1.0] <= ratios[0.1] + 1e-9

    def test_table6_matches_paper(self, results):
        analytic = results["table6"].analytic
        assert analytic["FairyWREN"] == pytest.approx(9.9, abs=0.1)
        assert analytic["naive Nemo"] == pytest.approx(30.4, abs=0.1)
        assert analytic["Nemo"] == pytest.approx(8.3, abs=0.1)

    def test_appendix_paper_example(self, results):
        rows = {r["fp"]: r for r in results["appendixA"].rows}
        assert rows[0.001]["index_pages"] == 7
        assert rows[0.0001]["index_pages"] == 9
        assert rows[0.0001]["total"] > rows[0.001]["total"]


class TestSharedSystemRuns:
    """The pooled suite replays each distinct system once and hands its
    record to every consumer, with output identical to running each
    experiment on its own."""

    def test_pooled_suite_matches_single_runs(self, results):
        pooled = run_experiments(list(EXPERIMENTS), scale="micro", jobs=2)
        for exp_id, result in zip(EXPERIMENTS, pooled):
            assert result.format() == results[exp_id].format(), exp_id

    def test_each_system_replays_once(self, monkeypatch, results):
        calls = Counter()
        real = systems.run_system

        def counting(spec):
            calls[spec] += 1
            return real(spec)

        monkeypatch.setattr(systems, "run_system", counting)
        listed = Counter(
            cell.args[0]
            for exp_id in EXPERIMENTS
            for cell in _module(exp_id).cells("micro")
            if cell.fn is counting
        )
        pooled = run_experiments(list(EXPERIMENTS), scale="micro", jobs=1)
        assert sum(listed.values()) == 42
        assert sum(calls.values()) == 23
        assert calls == Counter(set(listed))
        fw = {"log_fraction": 0.05, "op_ratio": 0.05}
        shared = {
            systems.nemo_system("micro"): 8,
            systems.system("fw", "micro", **fw): 7,
            systems.system("fw", "micro", log_fraction=0.05, op_ratio=0.50): 4,
            systems.system("fw", "micro", log_fraction=0.20, op_ratio=0.05): 3,
            systems.system("kg", "micro", **fw): 2,
        }
        assert {spec: listed[spec] for spec in shared} == shared
        for exp_id, result in zip(EXPERIMENTS, pooled):
            assert result.format() == results[exp_id].format(), exp_id
