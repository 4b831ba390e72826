"""Analytic models from the paper, used for theory-vs-practice checks.

- :mod:`repro.analysis.wa_model` — §3's write-amplification model:
  L2SWA(P) (Eq. 6), L2SWA(A) = 2·L2SWA(P), L2SWA = (2−p)·L2SWA(P)
  (Eq. 8), WA(FairyWREN) (Eq. 1), and WA(Nemo) = 1/E(FR_SG) (Eq. 9).
- :mod:`repro.analysis.fill_model` — balls-into-bins model of the
  short-term hash skew behind Figure 8 and challenge C1.
- :mod:`repro.analysis.pbfg_model` — Appendix A's index-accuracy vs
  read-amplification trade-off (Eqs. 10–11).
- :mod:`repro.analysis.memory_model` — Table 6's bits-per-object
  accounting for FairyWREN, naïve Nemo, and Nemo.
"""

from repro.analysis.wa_model import (
    HierarchicalModel,
    expected_bucket_len,
    l2swa,
    l2swa_active,
    l2swa_passive,
    nemo_wa,
)
from repro.analysis.fill_model import (
    expected_fill_when_first_set_full,
    fill_at_first_full_simulated,
)
from repro.analysis.pbfg_model import PBFGTradeoff, optimal_false_positive_rate
from repro.analysis.memory_model import (
    fairywren_bits_per_object,
    naive_nemo_bits_per_object,
    nemo_bits_per_object,
)

__all__ = [
    "HierarchicalModel",
    "expected_bucket_len",
    "l2swa_passive",
    "l2swa_active",
    "l2swa",
    "nemo_wa",
    "expected_fill_when_first_set_full",
    "fill_at_first_full_simulated",
    "PBFGTradeoff",
    "optimal_false_positive_rate",
    "fairywren_bits_per_object",
    "naive_nemo_bits_per_object",
    "nemo_bits_per_object",
]
