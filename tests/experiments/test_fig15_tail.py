"""Acceptance tests for the closed-loop tail experiment (fig15_tail).

The paper's §5.2 claim, restated for the bursty closed-loop scenario:
FairyWREN's continuous small RMW writes inflate the GET sojourn tails
(p99/p9999) while Nemo's occasional batched SG flushes leave them
stable.  The micro cell must reproduce that ordering — this is the
ISSUE's CI-asserted acceptance criterion for the event device lane.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import scale_params, twitter_trace
from repro.experiments.fig15_tail import (
    ARRIVAL_RATE_RPS,
    ARRIVAL_SEED,
    CLASS_NAMES,
    CLASS_SEED,
    CLASS_SHARES,
    QUEUE_DEPTH,
    SYSTEMS,
    _build_system,
)
from repro.experiments.registry import run_experiment
from repro.harness.closed_loop import replay_closed_loop
from repro.workloads.arrivals import assign_classes, bursty_arrivals


@pytest.fixture(scope="module")
def result():
    return run_experiment("fig15_tail", scale="micro")


class TestFig15Tail:
    def test_reports_every_system_class_and_window(self, result):
        assert set(result.windows) == set(SYSTEMS)
        for classes in result.windows.values():
            assert set(classes) == set(CLASS_NAMES)
            for windows in classes.values():
                assert set(windows) == {"before", "after"}
                for percentiles in windows.values():
                    assert set(percentiles) == {50.0, 99.0, 99.99}

    def test_fw_tails_above_nemo_everywhere(self, result):
        """The paper ordering: FW's p99/p9999 exceed Nemo's in every
        class and window of the bursty closed-loop scenario."""
        for cls in CLASS_NAMES:
            for phase in ("before", "after"):
                for q in (99.0, 99.99):
                    fw = result.windows["FW"][cls][phase][q]
                    nemo = result.windows["Nemo"][cls][phase][q]
                    assert fw > nemo, (cls, phase, q, fw, nemo)

    def test_nemo_tails_stable_across_the_flash_full_point(self, result):
        """Nemo's tails stay the same order of magnitude before and
        after the flash fills (FW's erraticness is the contrast, pinned
        by the ordering test; this guards Nemo's absolute stability)."""
        for cls in CLASS_NAMES:
            before = result.windows["Nemo"][cls]["before"]
            after = result.windows["Nemo"][cls]["after"]
            for q in (99.0, 99.99):
                assert after[q] <= 3.0 * before[q], (cls, q, before, after)

    def test_interactive_class_is_served_first_under_load(self, result):
        """Priority issue order: in the contended after-window (where
        queueing, not raw service, sets the tails) the interactive
        tier's p99/p9999 never exceed the batch tier's.  The light-load
        before-window shows no separation — priority only matters when
        requests actually queue."""
        for name in SYSTEMS:
            for q in (99.0, 99.99):
                interactive = result.windows[name]["interactive"]["after"][q]
                batch = result.windows[name]["batch"]["after"][q]
                assert interactive <= batch, (name, q, interactive, batch)

    def test_format_is_a_full_table(self, result):
        out = result.format()
        assert "closed-loop GET sojourn" in out
        for name in SYSTEMS:
            assert name in out
        for cls in CLASS_NAMES:
            assert cls in out


#: sha256(issue_us.tobytes() + complete_us.tobytes()) and peak in-flight
#: of the micro cell, recorded when the frontend scheduler and the NAND
#: dies still shared a heap-based event loop (before the frontend's
#: two-stream merge and the self-advancing dies): (system, queue_depth)
#: -> (digest, max_outstanding).  Every closed-loop timestamp is pinned.
SCHEDULE_DIGESTS = {
    ("Nemo", QUEUE_DEPTH): (
        "2874e6bb1f4dd559ebe05cb6745a3fa653deebcb67104d3af3945fc983275de5", 16,
    ),
    ("Nemo", None): (
        "4b98805055a2945b634eaafaffa32b3b967922bd64d84694bbf0b754e5b245f4", 44,
    ),
    ("FW", QUEUE_DEPTH): (
        "3c1eb56932704c9cb712d7aa7e360c73ecf92c9d3d818590e48aa408a152f5ff", 16,
    ),
    ("FW", None): (
        "aceb38e05a76a0c79165ecc7178b97cd5ea4e38b84a5d9e900c7fc70a62c4973", 73,
    ),
}


class TestScheduleDigests:
    @pytest.mark.parametrize(("system", "queue_depth"), list(SCHEDULE_DIGESTS))
    def test_micro_cell_timestamps_are_bit_identical(self, system, queue_depth):
        geometry, n = scale_params("micro")
        result = replay_closed_loop(
            _build_system(system, geometry),
            twitter_trace(n),
            arrival_us=bursty_arrivals(n, ARRIVAL_RATE_RPS, seed=ARRIVAL_SEED),
            class_ids=assign_classes(n, CLASS_SHARES, seed=CLASS_SEED),
            class_names=CLASS_NAMES,
            queue_depth=queue_depth,
        )
        digest = hashlib.sha256(
            result.issue_us.tobytes() + result.complete_us.tobytes()
        ).hexdigest()
        assert (digest, result.max_outstanding) == SCHEDULE_DIGESTS[system, queue_depth]
        assert result.events_fired == 2 * n == 120_000
