"""Unit tests for the delayed-flush policy."""

import pytest

from repro.core.config import FlushPolicyKind, NemoConfig
from repro.core.flusher import FlushDecision, FlushPolicy


def make_policy(**overrides):
    cfg = NemoConfig(**overrides)
    return FlushPolicy(cfg)


class TestNaive:
    def test_always_flushes(self):
        policy = make_policy(enable_delayed_flush=False)
        for _ in range(5):
            assert policy.decide() is FlushDecision.FLUSH
        assert policy.flushes == 5
        assert policy.deferrals == 0


class TestCount:
    def test_flushes_every_nth(self):
        policy = make_policy(flush_policy=FlushPolicyKind.COUNT, flush_threshold=4)
        decisions = [policy.decide() for _ in range(8)]
        assert decisions.count(FlushDecision.FLUSH) == 2
        assert decisions[3] is FlushDecision.FLUSH
        assert decisions[7] is FlushDecision.FLUSH

    def test_telemetry(self):
        policy = make_policy(flush_policy=FlushPolicyKind.COUNT, flush_threshold=3)
        for _ in range(7):
            policy.decide()
        assert policy.blocked_inserts == 7
        assert policy.flushes == 2
        assert policy.deferrals == 5

    def test_threshold_one_is_naive(self):
        policy = make_policy(flush_policy=FlushPolicyKind.COUNT, flush_threshold=1)
        assert policy.decide() is FlushDecision.FLUSH


class TestProbabilistic:
    def test_rate_matches_probability(self):
        policy = make_policy(
            flush_policy=FlushPolicyKind.PROBABILISTIC,
            flush_probability=0.25,
            rng_seed=42,
        )
        n = 8000
        flushes = sum(policy.decide() is FlushDecision.FLUSH for _ in range(n))
        assert flushes / n == pytest.approx(0.25, abs=0.03)

    def test_deterministic_given_seed(self):
        a = make_policy(
            flush_policy=FlushPolicyKind.PROBABILISTIC, flush_probability=0.1, rng_seed=9
        )
        b = make_policy(
            flush_policy=FlushPolicyKind.PROBABILISTIC, flush_probability=0.1, rng_seed=9
        )
        assert [a.decide() for _ in range(100)] == [b.decide() for _ in range(100)]


class TestAblationWiring:
    def test_disabled_delay_overrides_policy_kind(self):
        policy = make_policy(
            enable_delayed_flush=False, flush_policy=FlushPolicyKind.COUNT
        )
        assert policy.kind is FlushPolicyKind.NAIVE
