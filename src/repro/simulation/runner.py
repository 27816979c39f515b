"""Scenario orchestration: run every policy over a set of failure traces.

Mirrors the paper's methodology (Section 4.1): for an experimental
scenario, generate ``n_traces`` independent platform failure traces, run
every heuristic on every trace, add the omniscient ``LowerBound`` and the
searched ``PeriodLB``, and hand the per-trace makespans to
:mod:`repro.analysis` for the degradation-from-best statistic.

Execution is delegated to
:class:`repro.simulation.parallel.ParallelRunner`: ``jobs=1`` runs the
work units in process, ``jobs>1`` fans them out over worker processes
with bit-identical results (trace ``i`` is always generated from
``SeedSequence([seed, i])``, independent of batching).  Solved DP tables
are shared through :mod:`repro.core.cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.models import Platform
from repro.core.theory import optimal_num_chunks
from repro.policies.base import Policy
from repro.simulation.results import SimulationResult

__all__ = [
    "COUNTER_FIELDS",
    "ScenarioResult",
    "aggregate_counters",
    "run_scenarios",
]

LOWER_BOUND = "LowerBound"
PERIOD_LB = "PeriodLB"


@dataclass
class ScenarioResult:
    """Per-policy, per-trace outcomes of one experimental scenario.

    Attributes
    ----------
    makespans:
        Per policy name, the per-trace makespans (``NaN`` where the
        policy was infeasible on that trace).
    details:
        Per policy name, the per-trace :class:`SimulationResult` records
        (``None`` for infeasible pairs); not recorded for the synthetic
        ``LowerBound`` / ``PeriodLB`` entries.
    infeasible:
        Per policy name, the sorted trace indices on which the policy
        raised :class:`~repro.policies.base.PolicyInfeasibleError`
        (e.g. Liu on large Weibull platforms).  Policies that were
        always feasible do not appear.  Serial and parallel execution
        record identical entries.
    work_time:
        The failure-free execution time ``W(p)`` of the scenario.
    best_period:
        The winning PeriodLB period (``NaN`` when the search was off).
    elapsed:
        Wall-clock seconds spent executing the scenario.
    n_jobs:
        Worker processes used (1 = in-process serial).
    cache_hits / cache_misses:
        DP-table cache lookups observed during the run, aggregated over
        all workers (see :mod:`repro.core.cache`).
    memo_hits / memo_misses:
        DPNextFailure replan-memo lookups observed during the run,
        aggregated over all workers; both zero when no adaptive policy
        ran.  The sums
        are *per-worker* counters: a signature solved independently by
        N workers contributes N misses.
    memo_unique_misses:
        The deduplicated miss count — how many *distinct* replan
        signatures were actually solved during the run (the union of
        the workers' memo deltas; equal to ``memo_misses`` on serial
        runs, where every miss is already unique).  The gap between
        ``memo_misses`` and this number is pure double-counting.
    disk_hits / disk_misses / disk_evictions:
        Persistent solve-tier activity (:mod:`repro.core.diskcache`)
        during the run, aggregated over all workers; all zero when the
        tier is disabled (:func:`repro.core.diskcache.configure_disk_cache`).
    trace_gen_reused / ensemble_reused:
        True when the run consumed a sweep group's shared trace set /
        compiled ensemble (:mod:`repro.simulation.sweep`) instead of
        generating or compiling its own.  Execution metadata only —
        never part of the comparable result payload.
    scheduler:
        Cost-model dispatch diagnostics: unit count, estimated-cost
        max/mean/imbalance and measured per-unit seconds (see
        :class:`~repro.simulation.parallel.ParallelRunner`).  Execution
        metadata only.
    """

    makespans: dict[str, np.ndarray]
    details: dict[str, list[SimulationResult]] = field(default_factory=dict)
    work_time: float = math.nan
    best_period: float = math.nan
    infeasible: dict[str, list[int]] = field(default_factory=dict)
    elapsed: float = math.nan
    n_jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_unique_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    trace_gen_reused: bool = False
    ensemble_reused: bool = False
    scheduler: dict = field(default_factory=dict)

    def policy_names(self) -> list[str]:
        """Every recorded policy, including LowerBound/PeriodLB."""
        return list(self.makespans)


#: Counter fields summed by :func:`aggregate_counters`.
COUNTER_FIELDS = (
    "cache_hits",
    "cache_misses",
    "memo_hits",
    "memo_misses",
    "memo_unique_misses",
    "disk_hits",
    "disk_misses",
    "disk_evictions",
)


def aggregate_counters(results) -> dict:
    """Run-level counter roll-up over several :class:`ScenarioResult`.

    Multi-scenario commands (``repro sweep``, ``repro benchmark``)
    previously reported cache/memo/disk counters only per scenario;
    this sums them into one summary block for the CLI envelope.  Note
    ``memo_unique_misses`` is deduplicated *within* each scenario, so
    the sum counts a signature once per scenario that solved it — a
    signature served from the parent memo in a later scenario is a hit
    there, not another unique miss.
    """
    results = list(results)
    totals: dict = {
        name: int(sum(getattr(res, name) for res in results))
        for name in COUNTER_FIELDS
    }
    totals["scenarios"] = len(results)
    totals["elapsed"] = float(
        sum(res.elapsed for res in results if math.isfinite(res.elapsed))
    )
    return totals


def _optexp_period(platform: Platform, work_time: float) -> float:
    lam = 1.0 / platform.platform_mtbf
    k = optimal_num_chunks(lam, work_time, platform.checkpoint)
    return work_time / k


def run_scenarios(
    policies: list[Policy],
    platform: Platform,
    work_time: float,
    n_traces: int,
    horizon: float,
    t0: float = 0.0,
    seed: int = 0,
    include_lower_bound: bool = True,
    include_period_lb: bool = True,
    period_lb_factors: list[float] | None = None,
    period_lb_traces: int | None = None,
    max_makespan: float = math.inf,
    jobs: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    shared=None,
    executor=None,
) -> ScenarioResult:
    """Run ``policies`` over ``n_traces`` freshly generated traces.

    Traces are generated per scenario index with seeds derived from
    ``seed`` so the whole experiment is reproducible; infeasible
    policies (e.g. Liu on large Weibull platforms) record ``NaN``
    makespans *and* are listed in ``ScenarioResult.infeasible``.

    ``jobs`` selects the execution mode: 1 runs serially in process,
    ``N > 1`` fans (policy, trace-batch) work units out over ``N``
    worker processes, 0 or negative uses every CPU, and ``None`` reads
    the process-wide default
    (:func:`repro.simulation.parallel.set_default_execution`).  Per-trace
    results are bit-identical across all modes.
    ``progress`` is an optional ``(done, total)`` work-unit callback
    (see :class:`~repro.simulation.parallel.ParallelRunner`).
    ``shared`` hands the runner a pre-built
    :class:`~repro.simulation.parallel.SharedTraces` (sweep groups) and
    ``executor`` an externally-owned process pool — both are execution
    plumbing that cannot change results.
    """
    # Imported here: parallel drives the engine and policies, so a
    # module-level import would be circular through the package inits.
    from repro.simulation.parallel import ParallelRunner

    runner = ParallelRunner(jobs=jobs, progress=progress, executor=executor)
    return runner.run(
        policies,
        platform,
        work_time,
        n_traces=n_traces,
        horizon=horizon,
        t0=t0,
        seed=seed,
        include_lower_bound=include_lower_bound,
        include_period_lb=include_period_lb,
        period_lb_factors=period_lb_factors,
        period_lb_traces=period_lb_traces,
        max_makespan=max_makespan,
        shared=shared,
    )
