"""Delayed-flush policy (§4.2, technique ②).

When an insert finds its target set full in every in-memory SG, Nemo
must either flush the front SG or make room by evicting from the target
set.  Flushing early wastes fill; evicting costs a few objects.  The
policy trades these off:

- **naïve** (``enable_delayed_flush=False``) — flush immediately (the
  6.78 %-fill baseline of Fig. 17);
- **count-based** — flush on every ``threshold``-th blocked insert
  (what the paper deploys, Table 3 footnote; threshold 4,096).

The paper's favourable trade-off: "each immediate flush incurs the cost
of evicting roughly 1,000 objects, while the benefit is the insertion of
up to millions of new objects".  Figure 18 sweeps the threshold and
shows the diminishing ``new objects / evicted objects`` profit, which
:attr:`FlushPolicy.deferrals` / :attr:`FlushPolicy.flushes` feed.
"""

from __future__ import annotations

import enum

from repro.core.config import NemoConfig


class FlushDecision(enum.Enum):
    """What to do about one blocked insert."""

    FLUSH = "flush"      # flush the front SG now
    MAKE_ROOM = "evict"  # defer: evict from the target set instead


class FlushPolicy:
    """Stateful blocked-insert arbiter."""

    def __init__(self, config: NemoConfig) -> None:
        # The naïve flush is the count-based one at threshold 1.
        self.threshold = config.flush_threshold if config.enable_delayed_flush else 1
        self._blocked_since_flush = 0
        # Lifetime telemetry (Figure 18).
        self.blocked_inserts = 0
        self.deferrals = 0
        self.flushes = 0

    def decide(self) -> FlushDecision:
        """Called once per blocked insert; returns the action."""
        self.blocked_inserts += 1
        self._blocked_since_flush += 1
        if self._blocked_since_flush >= self.threshold:
            self._blocked_since_flush = 0
            self.flushes += 1
            return FlushDecision.FLUSH
        self.deferrals += 1
        return FlushDecision.MAKE_ROOM
