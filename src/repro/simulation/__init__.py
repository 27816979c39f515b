"""Discrete-event simulation of checkpoint/restart execution."""

from __future__ import annotations

from repro.simulation.batch import (
    TraceEnsemble,
    simulate_job_batch,
    simulate_lower_bound_batch,
    simulate_policy_ensemble,
)
from repro.simulation.engine import JobContext, simulate_job, simulate_lower_bound
from repro.simulation.parallel import (
    ParallelRunner,
    SharedTraces,
    set_default_execution,
)
from repro.simulation.results import SimulationResult
from repro.simulation.runner import (
    ScenarioResult,
    aggregate_counters,
    run_scenarios,
)
from repro.simulation.sweep import (
    SweepPlan,
    SweepResult,
    plan_sweep,
    run_sweep,
    trace_signature,
)

__all__ = [
    "JobContext",
    "simulate_job",
    "simulate_lower_bound",
    "TraceEnsemble",
    "simulate_job_batch",
    "simulate_lower_bound_batch",
    "simulate_policy_ensemble",
    "SimulationResult",
    "ScenarioResult",
    "aggregate_counters",
    "run_scenarios",
    "ParallelRunner",
    "SharedTraces",
    "set_default_execution",
    "SweepPlan",
    "SweepResult",
    "plan_sweep",
    "run_sweep",
    "trace_signature",
]
