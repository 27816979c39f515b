"""PeriodLB: numerical search for the best periodic policy.

The paper's ``PeriodLB`` multiplies and divides the OptExp period by
``1 + 0.05 i`` (``i <= 180``) and by ``1.1^j`` (``j <= 60``), evaluates
every candidate period on a set of random scenarios, and keeps the best.
It is a lower-bound *for periodic policies* that would be prohibitively
expensive in practice.

:func:`candidate_factors` reproduces that factor grid (scaled down by
default); :func:`best_period_search` evaluates candidates over a trace
set and returns the winner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["candidate_factors", "best_period_search", "PeriodSearchResult"]


def candidate_factors(n_linear: int = 10, n_geometric: int = 8, step: float = 0.05):
    """Multiplicative factors around the base period.

    Paper scale: ``n_linear=180, n_geometric=60``; defaults are reduced.
    The grid is symmetric: each factor ``f`` is used as ``f`` and ``1/f``.
    """
    linear = 1.0 + step * np.arange(1, n_linear + 1)
    geometric = 1.1 ** np.arange(1, n_geometric + 1)
    f = np.concatenate([[1.0], linear, 1.0 / linear, geometric, 1.0 / geometric])
    return np.unique(f)


@dataclass
class PeriodSearchResult:
    """Outcome of the search: winning period and the full sweep."""

    best_period: float
    best_mean_makespan: float
    periods: np.ndarray
    mean_makespans: np.ndarray


def best_period_search(
    base_period: float,
    work_time: float,
    job_traces: list,
    checkpoint: float,
    recovery: float,
    dist,
    t0: float = 0.0,
    platform_mtbf: float = np.nan,
    factors=None,
    max_makespan: float = np.inf,
) -> PeriodSearchResult:
    """Evaluate ``base_period * factor`` for every factor over the given
    job traces and return the period minimizing the mean makespan.

    Every candidate is replayed in one lockstep pass of the batch
    engine over one compiled ensemble — bit-identical to a per-trace
    :func:`repro.simulation.engine.simulate_job` sweep, much faster.
    ``dist`` and ``platform_mtbf`` describe the scenario; a periodic
    candidate's schedule depends on neither.
    """
    # Imported lazily: the batch engine imports the policies package,
    # so a module-level import would be circular.
    from repro.simulation.batch import simulate_period_makespans

    if factors is None:
        factors = candidate_factors()
    periods = np.asarray(sorted(base_period * np.asarray(factors)))
    spans = simulate_period_makespans(
        periods,
        work_time,
        job_traces,
        checkpoint,
        recovery,
        t0=t0,
        max_makespan=max_makespan,
    )
    means = np.asarray([float(np.mean(row)) for row in spans])
    best = int(np.argmin(means))
    return PeriodSearchResult(
        best_period=float(periods[best]),
        best_mean_makespan=float(means[best]),
        periods=periods,
        mean_makespans=means,
    )
