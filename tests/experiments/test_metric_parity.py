"""Byte-identity regression tests for the experiment datapath.

The engine-datapath optimisations (bucket-indexed GC, array-backed FTL
tables, marker payloads, batched relocation) must not perturb a single
metric: every fig12 cell (all five engines — the KG cell exercises the
batched GC relocation path — plus both FW variants) and every fig14
cell is compared against ``golden_metrics_micro.json``, recorded from
the pre-optimisation code, with exact float equality.

The replay *kernel* sweep replays the fig12/fig14/fig15 micro cells on
the columnar and scalar lanes (via the ``REPRO_REPLAY_KERNEL``
override) against the **same** golden file — all three lanes must be
byte-identical, not merely self-consistent.

Regenerate the golden file (only after an *intentional* metric change)::

    PYTHONPATH=src python tests/experiments/test_metric_parity.py --regen
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden_metrics_micro.json"

_ALL_FIGS = ("fig12", "fig14", "fig15", "fig16")

#: Figures the kernel sweep replays on every lane (fig16 rides on the
#: same datapath as fig12's sampled series; the sweep trades it for
#: suite wall-clock).
_SWEEP_FIGS = ("fig12", "fig14", "fig15")


def _compute_cells(figs: tuple[str, ...] = _ALL_FIGS) -> dict:
    from repro.experiments import fig12_wa_main as f12
    from repro.experiments import fig14_wa_trend as f14
    from repro.experiments import fig15_read_latency as f15
    from repro.experiments import fig16_miss_ratio as f16

    # Figures share system runs exactly as ``run_experiments`` does:
    # each distinct cell replays once.
    records: dict = {}

    def run(cells):
        for c in cells:
            if c.args not in records:
                records[c.args] = c.run()
        return [records[c.args] for c in cells]

    out: dict = {}
    if "fig12" in figs:
        fig12 = f12.assemble(run(f12.cells("micro")))
        out["fig12"] = fig12.main_rows + fig12.variant_rows[: len(f12.VARIANTS)]
    if "fig14" in figs:
        out["fig14"] = [
            f14._system_payload(name, rec)
            for (name, _, _), rec in zip(f14.SYSTEMS, run(f14.cells("micro")))
        ]
    # fig15 exercises the latency-model datapath (record_latency +
    # window percentiles); fig16 the sampled-series datapath.
    if "fig15" in figs:
        out["fig15"] = [f15._system_cell("micro", name) for name in f15.SYSTEMS]
    if "fig16" in figs:
        out["fig16"] = [
            f16._system_payload(name, rec)
            for name, rec in zip(f16.SYSTEMS, run(f16.cells("micro")))
        ]
    # Round-trip through JSON so tuples/lists and int/float widths
    # compare on equal footing with the stored golden file.
    return json.loads(json.dumps(out))


def _compute_cells_with_kernel(kernel: str, figs: tuple[str, ...]) -> dict:
    from repro.harness.runner import KERNEL_ENV_VAR

    prior = os.environ.get(KERNEL_ENV_VAR)
    os.environ[KERNEL_ENV_VAR] = kernel
    try:
        return _compute_cells(figs)
    finally:
        if prior is None:
            del os.environ[KERNEL_ENV_VAR]
        else:
            os.environ[KERNEL_ENV_VAR] = prior


def _assert_identical(new, golden, path=""):
    if isinstance(golden, dict):
        assert isinstance(new, dict) and set(new) == set(golden), path
        for key in golden:
            _assert_identical(new[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(new, list) and len(new) == len(golden), path
        for i, (a, b) in enumerate(zip(new, golden)):
            _assert_identical(a, b, f"{path}[{i}]")
    elif isinstance(golden, float) and isinstance(new, float):
        assert (new == golden) or (
            math.isnan(new) and math.isnan(golden)
        ), f"{path}: {new!r} != {golden!r}"
    else:
        assert new == golden, f"{path}: {new!r} != {golden!r}"


@pytest.fixture(scope="module")
def cells():
    return _compute_cells()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestMetricParity:
    def test_fig12_cells_byte_identical(self, cells, golden):
        _assert_identical(cells["fig12"], golden["fig12"], "fig12")

    def test_fig12_covers_kg(self, golden):
        from repro.experiments import fig12_wa_main as f12

        engines = list(f12.PAPER_WA)
        assert "KG" in engines
        assert len(golden["fig12"]) == len(engines) + len(f12.VARIANTS)

    def test_fig14_cells_byte_identical(self, cells, golden):
        _assert_identical(cells["fig14"], golden["fig14"], "fig14")

    def test_fig15_cells_byte_identical(self, cells, golden):
        _assert_identical(cells["fig15"], golden["fig15"], "fig15")

    def test_fig16_cells_byte_identical(self, cells, golden):
        _assert_identical(cells["fig16"], golden["fig16"], "fig16")


@pytest.fixture(scope="module", params=["columnar", "scalar"])
def kernel_cells(request):
    return request.param, _compute_cells_with_kernel(
        request.param, _SWEEP_FIGS
    )


class TestKernelSweep:
    """Columnar and scalar lanes reproduce the batched-lane goldens.

    The golden file was recorded on the batched lane, so passing here
    proves three-way byte identity on every fig12/fig14/fig15 micro
    cell — not just that each lane is internally stable.  On the
    columnar lane the Log *and* Nemo cells dispatch to their
    whole-trace kernels (``KERNEL_REGISTRY``), so the sweep's Nemo
    rows are the Nemo kernel's golden-metric gate.
    """

    @pytest.mark.parametrize("fig", _SWEEP_FIGS)
    def test_lane_matches_golden(self, kernel_cells, golden, fig):
        kernel, cells = kernel_cells
        _assert_identical(cells[fig], golden[fig], f"{kernel}:{fig}")

    def test_columnar_lane_engages_nemo_kernel(
        self, monkeypatch, golden, kernel_advances
    ):
        """Guard against the sweep going vacuous: the fig12 Nemo micro
        cell on the columnar lane must actually run the whole-trace
        Nemo kernel (not silently fall back to batched dispatch) and
        still match its golden row."""
        from repro.experiments import fig12_wa_main as f12
        from repro.experiments.systems import run_system
        from repro.harness.runner import KERNEL_ENV_VAR

        monkeypatch.setenv(KERNEL_ENV_VAR, "columnar")
        nemo_index = list(f12.PAPER_WA).index("Nemo")
        record = run_system(f12.table4_systems("micro")[nemo_index])
        cell = json.loads(json.dumps(f12._main_row(record)))
        # One kernel was opened (stops only ever grow) and its chunk
        # executor replayed requests.
        stops = [stop for stop, _ in kernel_advances]
        assert stops and stops == sorted(set(stops))
        assert kernel_advances[-1][1] > 0
        _assert_identical(
            cell, golden["fig12"][nemo_index], "columnar:fig12:Nemo"
        )


def _lane_parity_configs():
    """(label, engine builder) for every fig12/fig14/fig15 micro system."""
    from repro.baselines.fairywren import FairyWrenCache
    from repro.experiments import fig12_wa_main as f12
    from repro.experiments import fig14_wa_trend as f14
    from repro.experiments import fig15_read_latency as f15
    from repro.flash.latency import LatencyModel

    configs = [
        (f"fig12/{name}", lambda g, i=i: f12.build_engines(g)[i])
        for i, name in enumerate(f12.PAPER_WA)
    ]
    configs += [
        (
            f"fig14/{name}",
            lambda g, lf=lf, op=op: FairyWrenCache(
                g, log_fraction=lf, op_ratio=op
            ),
        )
        for name, lf, op in f14.SYSTEMS
        if lf is not None  # fig14's Nemo row is fig12's Nemo engine
    ]
    configs += [
        (
            f"fig15/{name}",
            lambda g, name=name: f15._build_system(
                name, g, LatencyModel(num_channels=8)
            ),
        )
        for name in f15.SYSTEMS
    ]
    return configs


_LANE_PARITY_CONFIGS = _lane_parity_configs()


class TestLatencyLaneParity:
    """The event device lane is counter-invariant on the experiment
    cells (DESIGN.md §9 parity contract): replaying every fig12 / fig14
    / fig15 micro configuration with ``latency_lane="event"`` must
    yield the analytic lane's final snapshot exactly — WA, miss ratio
    and op counts included.  The devsim property suite covers random
    traces; this pins the exact paper configurations CI reports.
    """

    @pytest.mark.parametrize(
        "label, build",
        _LANE_PARITY_CONFIGS,
        ids=[label for label, _ in _LANE_PARITY_CONFIGS],
    )
    def test_event_lane_matches_analytic_counters(self, label, build):
        from repro.experiments.common import scale_params, twitter_trace
        from repro.harness.runner import replay

        geometry, num_requests = scale_params("micro")
        trace = twitter_trace(num_requests)
        finals = {}
        for lane in ("analytic", "event"):
            result = replay(build(geometry), trace, latency_lane=lane)
            assert result.latency_lane == lane
            finals[lane] = json.loads(json.dumps(result.final))
        _assert_identical(finals["event"], finals["analytic"], label)


def main() -> None:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the golden file"
    )
    args = parser.parse_args()
    if not args.regen:
        parser.error("nothing to do; pass --regen to rewrite the golden file")
    GOLDEN_PATH.write_text(json.dumps(_compute_cells(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")


if __name__ == "__main__":
    main()
