"""Unit tests for reprolint rules R001–R006.

Every rule gets the same treatment: a fixture snippet that must fire, a
snippet in an allowlisted zone (or an allowed pattern) that must stay
silent, and a suppressed occurrence that must be honoured.  Snippets are
linted through :func:`repro.lint.engine.lint_source` with an explicit
``zone`` override so they don't need to live at real repo paths.
"""

import textwrap

from repro.lint.engine import classify_zone, lint_source, parse_suppression_comments
from repro.lint.rules import ALL_RULES, rules_by_code


def lint(source, zone, select=None):
    return lint_source(textwrap.dedent(source), zone=zone, select=select)


def codes(violations):
    return [v.code for v in violations]


class TestRuleRegistry:
    def test_all_rules_have_unique_codes_and_docstrings(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.code.startswith("R") and len(rule.code) == 4
            assert rule.code not in seen
            seen.add(rule.code)
            assert rule.__doc__ and rule.code in rule.__doc__

    def test_rules_by_code_covers_r001_to_r007(self):
        table = rules_by_code()
        # Code 4 is retired: bulk/scalar signatures are a runtime test.
        assert sorted(table) == [f"R00{i}" for i in range(1, 7) if i != 4]


class TestWallClockR001:
    def test_flags_time_time_in_core(self):
        found = lint(
            """
            import time
            STAMP = time.time()
            """,
            zone="core",
        )
        assert codes(found) == ["R001"]
        assert "time.time" in found[0].message

    def test_flags_aliased_perf_counter(self):
        found = lint(
            """
            from time import perf_counter as pc
            def tick():
                return pc()
            """,
            zone="flash",
        )
        assert codes(found) == ["R001"]

    def test_flags_datetime_now(self):
        found = lint(
            """
            import datetime
            def stamp():
                return datetime.datetime.now()
            """,
            zone="workloads",
        )
        assert codes(found) == ["R001"]

    def test_harness_zone_is_allowlisted(self):
        found = lint(
            """
            import time
            t0 = time.perf_counter()
            """,
            zone="harness",
        )
        assert found == []

    def test_suppression_comment_is_honoured(self):
        found = lint(
            """
            import time
            STAMP = time.time()  # reprolint: disable=R001
            """,
            zone="core",
        )
        assert found == []

    def test_simulated_clock_is_fine(self):
        found = lint(
            """
            def advance(now_us, step_us):
                return now_us + step_us
            """,
            zone="core",
        )
        assert found == []


class TestUnseededRandomR002:
    def test_flags_global_random_everywhere(self):
        snippet = """
            import random
            def pick():
                return random.random()
            """
        for zone in ("core", "harness", "tests", "benchmarks"):
            assert codes(lint(snippet, zone=zone)) == ["R002"]

    def test_flags_numpy_legacy_functions(self):
        found = lint(
            """
            import numpy as np
            noise = np.random.rand(10)
            """,
            zone="workloads",
        )
        assert codes(found) == ["R002"]
        assert "default_rng" in found[0].message

    def test_seeded_instances_are_fine(self):
        found = lint(
            """
            import random
            import numpy as np
            rng = random.Random(1234)
            gen = np.random.default_rng(7)
            x = rng.random() + gen.random()
            """,
            zone="core",
        )
        assert found == []

    def test_flags_unseeded_stream_constructors(self):
        found = lint(
            """
            import random
            import numpy as np
            a = random.Random()
            b = np.random.default_rng()
            c = np.random.RandomState()
            """,
            zone="tests",
        )
        assert codes(found) == ["R002"] * 3
        assert "without a seed" in found[0].message

    def test_flags_os_entropy_sources(self):
        found = lint(
            """
            import os
            import random
            import secrets
            import uuid
            from secrets import token_hex
            a = random.SystemRandom()
            b = os.urandom(8)
            c = uuid.uuid1()
            d = uuid.uuid4()
            e = secrets.randbelow(10)
            f = token_hex(8)
            """,
            zone="harness",
        )
        assert codes(found) == ["R002"] * 6
        assert "OS-entropy" in found[0].message

    def test_seeded_constructors_stay_allowed(self):
        found = lint(
            """
            import random
            import numpy as np
            def streams(seed):
                return (
                    np.random.default_rng(0),
                    np.random.default_rng(seed=seed),
                    np.random.RandomState(seed),
                    random.Random(seed),
                )
            """,
            zone="workloads",
        )
        assert found == []

    def test_suppression_on_preceding_comment_line(self):
        found = lint(
            """
            import random
            # this demo deliberately shows the anti-pattern
            # reprolint: disable=R002
            x = random.randint(0, 10)
            """,
            zone="tests",
        )
        assert found == []


class TestSetOrderR003:
    def test_flags_for_loop_over_set_in_core(self):
        found = lint(
            """
            def drain(items):
                pending = set(items)
                for key in pending:
                    yield key
            """,
            zone="core",
        )
        assert codes(found) == ["R003"]

    def test_flags_list_materialisation_of_set(self):
        found = lint(
            """
            def snapshot(blocks):
                free = {b for b in blocks}
                return list(free)
            """,
            zone="flash",
        )
        assert codes(found) == ["R003"]

    def test_sorted_iteration_is_fine(self):
        found = lint(
            """
            def drain(items):
                pending = set(items)
                total = sum(pending)
                low = min(pending)
                return [k for k in sorted(pending)], total, low
            """,
            zone="core",
        )
        assert found == []

    def test_out_of_zone_files_are_not_checked(self):
        found = lint(
            """
            def drain(items):
                pending = set(items)
                return [k for k in pending]
            """,
            zone="harness",
        )
        assert found == []

    def test_scope_isolation_no_false_positive_on_name_collision(self):
        # `member_sgs` is a set-typed attribute elsewhere in the file,
        # but here it is a *list* parameter — must not fire.
        found = lint(
            """
            class Group:
                member_sgs: set[int]

            def count(member_sgs: list) -> int:
                total = 0
                for sg in member_sgs:
                    total += sg
                return total
            """,
            zone="core",
        )
        assert found == []

    def test_set_typed_attribute_access_is_flagged(self):
        found = lint(
            """
            class Group:
                member_sgs: set[int]

            def drain(g):
                return [sg for sg in g.member_sgs]
            """,
            zone="core",
        )
        assert codes(found) == ["R003"]

    def test_suppression_is_honoured(self):
        found = lint(
            """
            def drain(items):
                pending = set(items)
                for key in pending:  # reprolint: disable=R003
                    yield key
            """,
            zone="core",
        )
        assert found == []


class TestFloatIntoIntCounterR005:
    def test_flags_true_division_into_counter(self):
        found = lint(
            """
            def account(stats, nbytes):
                stats.host_write_bytes += nbytes / 2
            """,
            zone="flash",
        )
        assert codes(found) == ["R005"]

    def test_flags_float_argument_to_recorder(self):
        found = lint(
            """
            def account(stats, pages, page_size):
                stats.record_host_write(pages * 0.5 * page_size)
            """,
            zone="core",
        )
        assert codes(found) == ["R005"]

    def test_floor_division_and_int_coercion_are_fine(self):
        found = lint(
            """
            def account(stats, nbytes, scale):
                stats.host_write_bytes += nbytes // 2
                stats.record_host_write(int(nbytes * scale))
                stats.record_host_write(len([nbytes]) * nbytes)
            """,
            zone="flash",
        )
        assert found == []

    def test_non_counter_attributes_are_ignored(self):
        found = lint(
            """
            def measure(model, span):
                model.mean_latency_us = span / 3
            """,
            zone="flash",
        )
        assert found == []

    def test_out_of_zone_not_checked(self):
        found = lint(
            """
            def account(stats, nbytes):
                stats.host_write_bytes += nbytes / 2
            """,
            zone="harness",
        )
        assert found == []


class TestBroadExceptR006:
    def test_flags_silent_broad_except(self):
        found = lint(
            """
            def run(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
            zone="harness",
        )
        assert codes(found) == ["R006"]

    def test_flags_bare_except(self):
        found = lint(
            """
            def run(fn):
                try:
                    return fn()
                except:
                    pass
            """,
            zone="tests",
        )
        assert codes(found) == ["R006"]

    def test_reraise_is_fine(self):
        found = lint(
            """
            def run(fn):
                try:
                    return fn()
                except Exception as exc:
                    raise RuntimeError("cell failed") from exc
            """,
            zone="harness",
        )
        assert found == []

    def test_logging_is_fine(self):
        found = lint(
            """
            def run(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log.warning("degraded: %s", exc)
                    return None
            """,
            zone="harness",
        )
        assert found == []

    def test_narrow_exception_is_fine(self):
        found = lint(
            """
            def run(fn):
                try:
                    return fn()
                except (ValueError, KeyError):
                    return None
            """,
            zone="core",
        )
        assert found == []

    def test_audited_suppression_is_honoured(self):
        found = lint(
            """
            def run(fn):
                try:
                    return fn()
                # Audited degrade point: any failure falls back serially.
                except Exception:  # reprolint: disable=R006
                    return None
            """,
            zone="harness",
        )
        assert found == []


class TestEngineHelpers:
    def test_zone_classification(self):
        assert classify_zone("src/repro/core/nemo.py") == "core"
        assert classify_zone("src/repro/flash/ftl.py") == "flash"
        assert classify_zone("src/repro/harness/runner.py") == "harness"
        assert classify_zone("src/repro/cli.py") == "repro"
        assert classify_zone("benchmarks/e2e/run.py") == "benchmarks"
        assert classify_zone("tests/core/test_nemo.py") == "tests"
        assert classify_zone("setup.py") == "other"

    def test_devsim_files_inherit_the_simulated_flash_zone(self):
        """The event-driven device lane (DESIGN.md §9) lives under
        ``src/repro/flash/devsim/`` and must classify into the ``flash``
        zone so the simulated-zone determinism contracts (R001
        wall-clock, R003 set order) apply to it."""
        for module in ("nand", "model", "frontend", "factory"):
            path = f"src/repro/flash/devsim/{module}.py"
            assert classify_zone(path) == "flash", path

    def test_simulated_zone_rules_fire_for_devsim_style_code(self):
        """A devsim-zoned snippet reading the wall clock and drawing
        unseeded randomness trips both determinism rules — pinning that
        the event loop's virtual time cannot silently grow host-clock
        or RNG dependencies."""
        found = lint(
            """
            import random
            import time

            def jitter():
                return time.perf_counter() + random.random()
            """,
            zone="flash",
            select={"R001", "R002"},
        )
        assert sorted(codes(found)) == ["R001", "R002"]

    def test_parse_suppressions_same_line_and_next_line(self):
        same_line, comment_only = parse_suppression_comments(
            "x = 1  # reprolint: disable=R001\n"
            "# reprolint: disable=R002, R003\n"
            "y = 2\n"
        )
        assert same_line.codes == {"R001"}
        assert same_line.effective_lines == (1,)
        assert comment_only.codes == {"R002", "R003"}
        assert comment_only.effective_lines == (2, 3)

    def test_docstring_mention_silences_nothing(self):
        found = lint(
            '''
            import time

            def stamp():
                """Host time; callers that must may suppress with
                # reprolint: disable=R001"""
                return time.time()
            ''',
            zone="core",
        )
        assert codes(found) == ["R001"]

    def test_disable_all(self):
        found = lint(
            """
            import time
            STAMP = time.time()  # reprolint: disable=all
            """,
            zone="core",
        )
        assert found == []

    def test_select_restricts_rules(self):
        source = """
            import time
            import random
            A = time.time()
            B = random.random()
            """
        assert codes(lint(source, zone="core")) == ["R001", "R002"]
        assert codes(lint(source, zone="core", select={"R002"})) == ["R002"]
