"""Fixture-driven tests for the whole-program rules D101-D105.

Each rule has a positive package (a true violation the rule must find)
and a negative package (the compliant twin it must stay silent on)
under ``tests/lint/fixtures/deep/``.  The fixtures are self-contained
mini-projects — their own ``CacheEngine``, ``make_engine`` factory and
``KERNEL_REGISTRY`` — so they exercise the same registry-discovery path
as the real tree, not a hard-coded module list.
"""

from pathlib import Path

import pytest

from repro.lint.deep.project import load_project
from repro.lint.deep.rules import DEEP_RULES, discover_anchors

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "deep"

CHECKERS = {code: checker for code, _desc, checker in DEEP_RULES}


def run_rule(fixture: str, code: str):
    project = load_project(FIXTURES / fixture, scan_roots=(".",))
    anchors = discover_anchors(project)
    return project, anchors, CHECKERS[code](project, anchors)


class TestAnchors:
    def test_engine_classes_come_from_make_engine(self):
        project, anchors, _ = run_rule("d101_bad", "D101")
        assert [c.name for c in anchors.engine_classes] == ["JitterEngine"]
        assert anchors.base_engine is not None
        assert anchors.base_engine.name == "CacheEngine"

    def test_replay_roots_come_from_registry_dict(self):
        project, anchors, _ = run_rule("d103_bad", "D103")
        assert anchors.replay_roots == ["kernels.replay_columnar"]


class TestD101:
    def test_unseeded_draw_two_calls_from_entry_point(self):
        _, _, violations = run_rule("d101_bad", "D101")
        assert len(violations) >= 1
        v = violations[0]
        assert v.code == "D101"
        assert v.path == "helper.py"
        assert "random.random" in v.message
        # Witness chain names the interprocedural path, not just the site.
        assert "jitter" in v.message

    def test_seeded_stream_is_silent(self):
        _, _, violations = run_rule("d101_ok", "D101")
        assert violations == []


class TestD102:
    def test_unaccounted_nand_program_is_flagged(self):
        _, _, violations = run_rule("d102_bad", "D102")
        assert [v.code for v in violations] == ["D102"]
        assert violations[0].path == "engine.py"
        assert "program" in violations[0].message

    def test_accounted_nand_program_is_silent(self):
        _, _, violations = run_rule("d102_ok", "D102")
        assert violations == []


class TestD103:
    def test_impure_decision_pass_is_flagged(self):
        _, _, violations = run_rule("d103_bad", "D103")
        assert len(violations) == 1
        v = violations[0]
        assert v.code == "D103"
        assert "_decide" in v.message
        assert "head" in v.message

    def test_mutation_in_registered_replay_driver_is_allowed(self):
        _, _, violations = run_rule("d103_ok", "D103")
        assert violations == []


class TestD104:
    def test_missing_protocol_and_wallclock_recovery(self):
        _, _, violations = run_rule("d104_bad", "D104")
        codes = [v.code for v in violations]
        assert codes.count("D104") == len(codes) and len(codes) >= 3
        messages = " | ".join(v.message for v in violations)
        # NoCrashEngine misses both methods; ClockEngine's recover
        # reads the wall clock.
        assert "NoCrashEngine" in messages and "crash" in messages
        assert "ClockEngine" in messages and "time.time" in messages

    def test_total_deterministic_protocol_is_silent(self):
        _, _, violations = run_rule("d104_ok", "D104")
        assert violations == []


class TestD105:
    def test_default_drift_and_renamed_parameter(self):
        _, _, violations = run_rule("d105_bad", "D105")
        messages = " | ".join(v.message for v in violations)
        assert all(v.code == "D105" for v in violations)
        assert "record" in messages  # default changed None -> 0
        assert "sizes" in messages and "lengths" in messages  # rename

    def test_matching_signatures_with_defaulted_extras_are_silent(self):
        _, _, violations = run_rule("d105_ok", "D105")
        assert violations == []


class TestSuppression:
    def test_deep_findings_honour_disable_comments(self, tmp_path):
        fixture = FIXTURES / "d103_bad" / "kernels.py"
        source = fixture.read_text(encoding="utf-8").replace(
            "    engine.head = len(keys)",
            "    # reprolint: disable=D103\n    engine.head = len(keys)",
        )
        (tmp_path / "kernels.py").write_text(source, encoding="utf-8")
        project = load_project(tmp_path, scan_roots=(".",))
        anchors = discover_anchors(project)
        assert CHECKERS["D103"](project, anchors) == []


@pytest.mark.parametrize("code", sorted(CHECKERS))
def test_every_deep_rule_has_a_true_positive_fixture(code):
    fixture = f"{code.lower()}_bad"
    _, _, violations = run_rule(fixture, code)
    assert any(v.code == code for v in violations)
