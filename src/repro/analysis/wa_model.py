"""Write-amplification model of hierarchical caches (paper §3).

Notation follows Table 2: set/page size ``w``, expected object size
``s``, ``N_Log`` / ``N_Set`` pages in the two tiers, OP ratio ``X`` (the
fraction of HSet reserved for GC), usable sets ``N'_Set = (1−X)·N_Set``.

Key results (validated against the simulators in the fig04–fig06
experiments and the ``tests/test_analysis`` suite):

- Eq. 5:  E(L_i) = (w/s · N_Log) / (N'_Set / 2)   (FW's cold-half range)
- Eq. 6:  L2SWA(P) = (1−X)·N_Set / (2·N_Log)
- §3.2.2: L2SWA(A) = 2 · L2SWA(P)
- Eq. 8:  L2SWA = (2−p) · L2SWA(P)
- Eq. 1:  WA(FW) = 1/E(FR_i) + L2SWA
- Eq. 9:  WA(Nemo) = 1/E(FR_SG)

The conditional-mean helpers model what a simulator *measures*: a bucket
only flushes when non-empty, so observed mean objects-per-write is
``E[L | L ≥ 1]`` of a Poisson bucket population — the reason the paper's
measured passive/active means (2.04 vs 1.03) sit closer together than
the 2× residence-time argument suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


def expected_bucket_len(
    w: float, s: float, n_log: float, num_buckets: float
) -> float:
    """Eq. 5 generalised: expected objects per HLog bucket.

    ``num_buckets`` is ``N'_Set / 2`` for FairyWREN (hot/cold split) and
    ``N'_Set`` for Kangaroo.
    """
    if min(w, s, n_log, num_buckets) <= 0:
        raise ConfigError("all model inputs must be positive")
    return (w / s) * n_log / num_buckets


def l2swa_passive(n_set: float, n_log: float, op_ratio: float, *, fairywren: bool = True) -> float:
    """Eq. 6: passive log-to-set WA.

    ``fairywren=True`` (hot/cold sets) uses the ½·N'_Set hash range;
    False (Kangaroo) uses the full range, doubling the result.
    """
    if not 0.0 <= op_ratio < 1.0:
        raise ConfigError("op_ratio must be in [0, 1)")
    if n_log <= 0 or n_set <= 0:
        raise ConfigError("page counts must be positive")
    usable = (1.0 - op_ratio) * n_set
    denom = 2.0 * n_log if fairywren else n_log
    return usable / denom


def l2swa_active(n_set: float, n_log: float, op_ratio: float, *, fairywren: bool = True) -> float:
    """§3.2.2: active migration doubles passive WA (half the residence)."""
    return 2.0 * l2swa_passive(n_set, n_log, op_ratio, fairywren=fairywren)


def l2swa(
    n_set: float, n_log: float, op_ratio: float, p: float, *, fairywren: bool = True
) -> float:
    """Eq. 8: blended log-to-set WA, p = passive RMW fraction."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("p must be in [0, 1]")
    return (2.0 - p) * l2swa_passive(n_set, n_log, op_ratio, fairywren=fairywren)


def fairywren_wa(
    n_set: float,
    n_log: float,
    op_ratio: float,
    p: float,
    *,
    log_fill_rate: float = 1.0,
) -> float:
    """Eq. 1: WA(FW) = 1/E(FR_i) + L2SWA."""
    if not 0.0 < log_fill_rate <= 1.0:
        raise ConfigError("log_fill_rate must be in (0, 1]")
    return 1.0 / log_fill_rate + l2swa(n_set, n_log, op_ratio, p, fairywren=True)


def nemo_wa(sg_fill_rate: float) -> float:
    """Eq. 9: WA(Nemo) = 1 / E(FR_SG) (fill from *new* objects)."""
    if not 0.0 < sg_fill_rate <= 1.0:
        raise ConfigError("sg_fill_rate must be in (0, 1]")
    return 1.0 / sg_fill_rate


def conditional_poisson_mean(lam: float) -> float:
    """E[L | L ≥ 1] for L ~ Poisson(lam).

    What a simulator measures as "mean new objects per set write":
    empty buckets never trigger passive flushes.
    """
    if lam <= 0:
        raise ConfigError("lam must be positive")
    return lam / (1.0 - math.exp(-lam))


@dataclass(frozen=True)
class HierarchicalModel:
    """Bundled §3 model for one configuration (one Table 4 column)."""

    page_size: int
    object_size: float
    n_log_pages: int
    n_set_pages: int
    op_ratio: float
    fairywren: bool = True

    @property
    def usable_sets(self) -> float:
        return (1.0 - self.op_ratio) * self.n_set_pages

    @property
    def num_buckets(self) -> float:
        return self.usable_sets / 2.0 if self.fairywren else self.usable_sets

    @property
    def expected_bucket_len(self) -> float:
        return expected_bucket_len(
            self.page_size, self.object_size, self.n_log_pages, self.num_buckets
        )

    @property
    def l2swa_passive(self) -> float:
        return l2swa_passive(
            self.n_set_pages, self.n_log_pages, self.op_ratio, fairywren=self.fairywren
        )

    @property
    def l2swa_active(self) -> float:
        return 2.0 * self.l2swa_passive

    def l2swa(self, p: float) -> float:
        return (2.0 - p) * self.l2swa_passive

    def total_wa(self, p: float, *, log_fill_rate: float = 1.0) -> float:
        return 1.0 / log_fill_rate + self.l2swa(p)

    @property
    def measured_passive_mean_objects(self) -> float:
        """Predicted simulator-visible mean objects per passive write."""
        return conditional_poisson_mean(self.expected_bucket_len)

    @property
    def measured_active_mean_objects(self) -> float:
        """Predicted mean objects per active write (includes empties).

        Active migration rewrites every valid cold set regardless of its
        bucket, so the unconditional mean at half residence applies.
        """
        return self.expected_bucket_len / 2.0
