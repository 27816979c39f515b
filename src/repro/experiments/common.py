"""Shared plumbing for experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.degradation import DegradationStats, degradation_from_best
from repro.cluster.models import Platform
from repro.cluster.presets import PlatformPreset
from repro.distributions import Exponential, Weibull
from repro.experiments.config import ExperimentScale
from repro.policies import (
    Bouguerra,
    DalyHigh,
    DalyLow,
    DPMakespanPolicy,
    DPNextFailurePolicy,
    Liu,
    OptExp,
    Young,
)
from repro.policies.periodlb import candidate_factors
from repro.simulation.runner import ScenarioResult, run_scenarios

__all__ = [
    "make_distribution",
    "default_parallel_policies",
    "logbased_policies",
    "single_proc_policies",
    "evaluate_scenario",
    "ScenarioOutcome",
]


def make_distribution(kind: str, mtbf: float, weibull_k: float = 0.7):
    """Failure law from the paper's naming: 'exponential' or 'weibull'."""
    if kind == "exponential":
        return Exponential.from_mtbf(mtbf)
    if kind == "weibull":
        return Weibull.from_mtbf(mtbf, weibull_k)
    raise ValueError(f"unknown distribution kind {kind!r}")


def default_parallel_policies(scale: ExperimentScale, include_dpmakespan: bool):
    """The paper's heuristic set for parallel scenarios (Section 4.1)."""
    policies = [
        Young(),
        DalyLow(),
        DalyHigh(),
        Liu(),
        Bouguerra(),
        OptExp(),
        DPNextFailurePolicy(n_grid=scale.dp_n_grid),
    ]
    if include_dpmakespan:
        policies.append(DPMakespanPolicy())
    return policies


def logbased_policies(scale: ExperimentScale):
    """Log-based scenarios: only the MTBF-adaptable heuristics plus
    DPNextFailure (Section 6)."""
    return [
        Young(),
        DalyLow(),
        DalyHigh(),
        OptExp(),
        DPNextFailurePolicy(n_grid=scale.dp_n_grid),
    ]


def single_proc_policies(scale: ExperimentScale):
    """All ten heuristics for the single-processor study (Section 5.1)."""
    return [
        Young(),
        DalyLow(),
        DalyHigh(),
        Liu(),
        Bouguerra(),
        OptExp(),
        DPNextFailurePolicy(n_grid=scale.dp_n_grid),
        DPMakespanPolicy(),
    ]


@dataclass
class ScenarioOutcome:
    """Raw scenario result plus its degradation statistics."""

    raw: ScenarioResult
    degradation: dict[str, DegradationStats]


def evaluate_scenario(
    policies,
    platform: Platform,
    work_time: float,
    preset: PlatformPreset,
    scale: ExperimentScale,
    seed=0,
    include_period_lb: bool = True,
    jobs: int | None = None,
) -> ScenarioOutcome:
    """Run all policies + LowerBound + PeriodLB and compute degradations.

    ``jobs`` selects the worker count (see
    :func:`repro.simulation.runner.run_scenarios`); ``None`` reads the
    process-wide default set by the CLI ``--jobs`` flag or
    :func:`repro.simulation.parallel.set_default_execution`, so every
    experiment driver inherits it without plumbing.
    """
    raw = run_scenarios(
        policies,
        platform,
        work_time,
        n_traces=scale.n_traces,
        horizon=preset.horizon,
        t0=preset.start_offset,
        seed=seed,
        include_period_lb=include_period_lb,
        period_lb_factors=candidate_factors(
            scale.period_lb_linear, scale.period_lb_geometric
        ),
        period_lb_traces=min(scale.period_lb_traces, scale.n_traces),
        max_makespan=scale.max_makespan_factor * work_time,
        jobs=jobs,
    )
    return ScenarioOutcome(raw=raw, degradation=degradation_from_best(raw.makespans))
