"""Unit tests for the delayed-flush policy."""

from repro.core.config import NemoConfig
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
        policy = make_policy(flush_threshold=4)
        decisions = [policy.decide() for _ in range(8)]
        assert decisions.count(FlushDecision.FLUSH) == 2
        assert decisions[3] is FlushDecision.FLUSH
        assert decisions[7] is FlushDecision.FLUSH

    def test_telemetry(self):
        policy = make_policy(flush_threshold=3)
        for _ in range(7):
            policy.decide()
        assert policy.blocked_inserts == 7
        assert policy.flushes == 2
        assert policy.deferrals == 5

    def test_threshold_one_is_naive(self):
        policy = make_policy(flush_threshold=1)
        assert policy.decide() is FlushDecision.FLUSH


class TestAblationWiring:
    def test_disabled_delay_overrides_policy_kind(self):
        """Technique ② off is the naïve flush whatever the threshold."""
        policy = make_policy(enable_delayed_flush=False, flush_threshold=4)
        assert [policy.decide() for _ in range(3)] == [FlushDecision.FLUSH] * 3
        assert policy.deferrals == 0
