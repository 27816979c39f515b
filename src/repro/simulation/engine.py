"""Discrete-event engine executing a tightly-coupled job against a
failure trace.

The engine walks the merged, sorted platform failure stream and handles:

- failures during chunk execution and during checkpointing (the work of
  the current chunk is lost);
- downtime ``D`` of the failed unit while the other units idle;
- *cascading* failures: units failing while another unit is down extend
  the outage (the platform resumes only when every unit is up);
- failures during recovery ``R`` (the recovery is restarted);
- per-unit lifetime tracking so that policies can query processor ages.

Two entry points: :func:`simulate_job` runs a
:class:`repro.policies.base.Policy`; :func:`simulate_lower_bound` runs
the omniscient LowerBound that checkpoints exactly ``C`` before each
failure.  :func:`simulate_job`'s loop is the generator
:func:`job_steps`, which suspends wherever the policy waits on a plan,
so lockstep lanes (:mod:`repro.simulation.batch`) replay many traces
through the same loop and resolve their replans together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.distributions.base import FailureDistribution
from repro.simulation.results import SimulationResult
from repro.traces.generation import JobTraces

__all__ = ["JobContext", "job_steps", "simulate_job", "simulate_lower_bound"]

_WORK_EPS = 1e-6  # seconds of work considered "done"


@dataclass
class JobContext:
    """Runtime information exposed to checkpointing policies."""

    checkpoint: float
    recovery: float
    downtime: float
    dist: FailureDistribution
    work_time: float
    n_units: int
    platform_mtbf: float
    t0: float
    time: float = 0.0
    # None until the context is bound to a running simulation (the batch
    # engine probes static schedules with an unbound context).
    _lifetime_start: np.ndarray | None = None

    @property
    def ages(self) -> np.ndarray:
        """Per-unit time since the start of the current lifetime."""
        if self._lifetime_start is None:
            raise ValueError(
                "context is not bound to a running simulation; per-unit "
                "ages are only available from the scalar engine"
            )
        return np.maximum(self.time - self._lifetime_start, 0.0)

    @property
    def age(self) -> float:
        """Age of the single unit (sequential-job convenience)."""
        if self._lifetime_start is None or self._lifetime_start.size != 1:
            raise ValueError("age is only defined for single-unit jobs")
        return float(max(self.time - self._lifetime_start[0], 0.0))


class _Engine:
    """Shared failure-handling machinery."""

    def __init__(self, traces: JobTraces, recovery: float, t0: float):
        self.times = traces.times
        self.units = traces.units
        self.n = self.times.size
        self.d = traces.downtime
        self.r = recovery
        self.lifetime_start = traces.lifetime_starts_at(t0)
        self.i = traces.next_event_index(t0)
        self.n_failures = 0
        # Wait for any unit still in downtime at submission.
        self.t = max(t0, float(self.lifetime_start.max(initial=0.0)))

    def peek_next_failure(self) -> float:
        """Time of the next live failure event (inf if none), skipping
        events that fall inside the emitting unit's own downtime."""
        while self.i < self.n and (
            self.times[self.i] < self.lifetime_start[self.units[self.i]]
        ):
            self.i += 1
        return float(self.times[self.i]) if self.i < self.n else math.inf

    def _absorb_outage(self, avail: float) -> float:
        """Consume every failure event up to ``avail`` (cascades extend
        the window); return the time all units are up again."""
        while self.i < self.n and self.times[self.i] <= avail:
            tf = float(self.times[self.i])
            u = self.units[self.i]
            if tf >= self.lifetime_start[u]:
                self.lifetime_start[u] = tf + self.d
                avail = max(avail, tf + self.d)
                self.n_failures += 1
            self.i += 1
        return avail

    def handle_failure(self, tf: float) -> float:
        """Process the failure at ``tf`` (and any cascades), then perform
        the recovery, restarting it if interrupted.  Returns the time at
        which the platform holds a restored checkpoint and can compute.
        """
        u = self.units[self.i]
        self.lifetime_start[u] = tf + self.d
        self.n_failures += 1
        self.i += 1
        avail = self._absorb_outage(tf + self.d)
        while True:
            next_tf = self.peek_next_failure()
            if avail + self.r <= next_tf:
                self.t = avail + self.r
                return self.t
            # recovery interrupted: the failing unit goes down, cascades
            # may extend the outage, then recovery restarts
            u = self.units[self.i]
            self.lifetime_start[u] = next_tf + self.d
            self.n_failures += 1
            self.i += 1
            avail = self._absorb_outage(next_tf + self.d)


def simulate_job(
    policy,
    work_time: float,
    traces: JobTraces,
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> SimulationResult:
    """Execute ``work_time`` seconds of tightly-coupled computation under
    ``policy`` against the failure trace.

    The policy is consulted at every decision point (job start, after
    each checkpoint, after each recovery) for the next chunk size; a
    chunk costs ``chunk + checkpoint`` seconds and is lost if any unit
    fails before the checkpoint completes.  A plan the policy waits on
    (:meth:`~repro.policies.base.Policy.plan_request`) is resolved on
    the spot, one replan at a time.
    """
    steps = job_steps(
        policy,
        work_time,
        traces,
        checkpoint,
        recovery,
        dist,
        t0=t0,
        platform_mtbf=platform_mtbf,
        max_makespan=max_makespan,
    )
    try:
        request = next(steps)
        while True:
            request = steps.send(request.resolve())
    except StopIteration as done:
        return done.value


def job_steps(
    policy,
    work_time: float,
    traces: JobTraces,
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> Generator[Any, Any, SimulationResult]:
    """The loop of :func:`simulate_job`, suspended at every plan request.

    A generator: it yields each request of
    :meth:`~repro.policies.base.Policy.plan_request`, expects the
    request's answer sent back, hands it to the policy's
    :meth:`~repro.policies.base.Policy.adopt_plan`, and returns the
    :class:`SimulationResult`.  :func:`simulate_job` answers each
    request as it comes; lockstep lanes answer the requests of many
    traces together (:func:`repro.simulation.batch.simulate_policy_ensemble`).
    """
    eng = _Engine(traces, recovery, t0)
    time_waiting = eng.t - t0
    time_lost = 0.0
    time_outage = 0.0
    ctx = JobContext(
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=traces.downtime,
        dist=dist,
        work_time=work_time,
        n_units=traces.n_units,
        platform_mtbf=platform_mtbf,
        t0=t0,
        time=eng.t,
        _lifetime_start=eng.lifetime_start,
    )
    policy.setup(ctx)
    remaining = work_time
    n_checkpoints = 0
    n_attempts = 0
    chunk_min, chunk_max = math.inf, 0.0
    while remaining > _WORK_EPS:
        ctx.time = eng.t
        request = policy.plan_request(remaining, ctx)
        if request is not None:
            policy.adopt_plan(request, (yield request))
        w = float(policy.next_chunk(remaining, ctx))
        if not (w > 0):
            raise ValueError(
                f"policy {getattr(policy, 'name', policy)!r} proposed "
                f"non-positive chunk {w!r}"
            )
        w = min(w, remaining)
        chunk_min = min(chunk_min, w)
        chunk_max = max(chunk_max, w)
        n_attempts += 1
        attempt_end = eng.t + w + checkpoint
        tf = eng.peek_next_failure()
        if attempt_end <= tf:
            eng.t = attempt_end
            remaining -= w
            n_checkpoints += 1
        else:
            time_lost += tf - eng.t
            resumed = eng.handle_failure(tf)
            time_outage += resumed - tf
            ctx.time = eng.t
            policy.on_failure(ctx)
        if eng.t - t0 > max_makespan:
            return SimulationResult(
                makespan=math.inf,
                work_time=work_time,
                n_failures=eng.n_failures,
                n_checkpoints=n_checkpoints,
                n_attempts=n_attempts,
                chunk_min=chunk_min if n_attempts else math.nan,
                chunk_max=chunk_max if n_attempts else math.nan,
                completed=False,
                time_lost=time_lost,
                time_outage=time_outage,
                time_waiting=time_waiting,
            )
    return SimulationResult(
        makespan=eng.t - t0,
        work_time=work_time,
        n_failures=eng.n_failures,
        n_checkpoints=n_checkpoints,
        n_attempts=n_attempts,
        chunk_min=chunk_min if n_attempts else math.nan,
        chunk_max=chunk_max if n_attempts else math.nan,
        time_lost=time_lost,
        time_outage=time_outage,
        time_waiting=time_waiting,
    )


def simulate_lower_bound(
    work_time: float,
    traces: JobTraces,
    checkpoint: float,
    recovery: float,
    t0: float = 0.0,
) -> SimulationResult:
    """Omniscient LowerBound: knows every failure date in advance and
    checkpoints exactly ``C`` before each one, losing no work; pays only
    the unavoidable downtimes and recoveries.  Unattainable in practice;
    used as the normalization floor of the degradation metric.
    """
    eng = _Engine(traces, recovery, t0)
    time_waiting = eng.t - t0
    time_lost = 0.0
    time_outage = 0.0
    remaining = work_time
    n_checkpoints = 0
    while remaining > _WORK_EPS:
        tf = eng.peek_next_failure()
        window = tf - eng.t
        if remaining <= window:
            eng.t += remaining
            remaining = 0.0
            break
        useful = max(0.0, window - checkpoint)
        if useful > 0:
            n_checkpoints += 1
        else:
            # window shorter than a checkpoint: the whole window is lost
            time_lost += window
        remaining -= useful
        resumed = eng.handle_failure(tf)
        time_outage += resumed - tf
    return SimulationResult(
        makespan=eng.t - t0,
        work_time=work_time,
        n_failures=eng.n_failures,
        n_checkpoints=n_checkpoints,
        n_attempts=n_checkpoints,
        time_lost=time_lost,
        time_outage=time_outage,
        time_waiting=time_waiting,
    )
