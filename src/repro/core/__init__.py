"""The paper's core contribution.

- :mod:`repro.core.lambert` — Lambert W function (principal branch),
  needed by Theorem 1 / Proposition 5.
- :mod:`repro.core.theory` — closed-form optima for Exponential failures
  (Theorem 1 sequential, Proposition 5 parallel) plus the supporting
  expectations (Lemma 1 ``E[Tlost]``, ``E[Trec]``).
- :mod:`repro.core.state` — platform survival state ``(tau_1..tau_p)``,
  its collapse to a shared log-survival advance table, and the paper's
  quantile compression (Section 3.3).
- :mod:`repro.core.dp_nextfailure` — Algorithm 2 (sequential and
  parallel) maximizing expected work before the next failure.
- :mod:`repro.core.dp_makespan` — Algorithm 1 minimizing expected
  makespan for arbitrary distributions (sequential).
- :mod:`repro.core.cache` — process-wide memoization of solved DP
  tables keyed on the exact scenario parameters.
"""

from __future__ import annotations

from repro.core.lambert import lambert_w
from repro.core.theory import (
    expected_makespan_optimal,
    expected_trec,
    expected_tlost_exponential,
    optimal_num_chunks,
    optimal_num_chunks_parallel,
)
from repro.core.state import PlatformState, SurvivalTable
from repro.core.dp_nextfailure import (
    DPNextFailureResult,
    dp_next_failure,
    dp_next_failure_parallel,
    expected_work_of_schedule,
)
from repro.core.dp_makespan import DPMakespanResult, dp_makespan
from repro.core.cache import (
    CacheStats,
    DPTableCache,
    cache_stats,
    cached_dp_makespan,
    cached_dp_next_failure_parallel,
    clear_cache,
    get_cache,
)

__all__ = [
    "lambert_w",
    "expected_makespan_optimal",
    "expected_trec",
    "expected_tlost_exponential",
    "optimal_num_chunks",
    "optimal_num_chunks_parallel",
    "PlatformState",
    "SurvivalTable",
    "DPNextFailureResult",
    "dp_next_failure",
    "dp_next_failure_parallel",
    "expected_work_of_schedule",
    "DPMakespanResult",
    "dp_makespan",
    "CacheStats",
    "DPTableCache",
    "cache_stats",
    "cached_dp_makespan",
    "cached_dp_next_failure_parallel",
    "clear_cache",
    "get_cache",
]
