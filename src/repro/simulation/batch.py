"""Vectorized batch replay of static-schedule policies over a whole
trace ensemble.

The scalar engine (:mod:`repro.simulation.engine`) walks each trace's
failure events one Python iteration at a time, consulting the policy at
every decision point.  Seven of the paper's ten policies (Young,
DalyLow, DalyHigh, OptExp, PeriodLB candidates, Liu, Bouguerra) choose
chunks from a *fixed schedule* that never depends on runtime platform
state — declared via :meth:`repro.policies.base.Policy.static_schedule`.
For those, this module simulates the **entire ensemble at once** with
NumPy, in two phases:

1. **Compile** (:class:`TraceEnsemble`): the sequence of failure/resume
   windows of a trace is *policy-independent* — an outage opened by a
   failure at ``t`` absorbs every later event ``t' < (t_last + D) + R``
   (cascades extend the downtime window, events during the recovery
   restart it; both continue the outage), and the platform resumes at
   ``(t_last + D) + R``.  On sorted merged event streams that grouping
   is a single vectorized gap comparison per trace.  Traces with
   events inside a unit's own downtime (only possible in hand-crafted
   traces or ``t0 > 0`` submissions into a downtime window) fall back to
   an exact scan built on the scalar engine's machinery.  The compiled
   ensemble is shared by every policy replayed against it.

2. **Replay** (:func:`simulate_job_batch`): all traces advance in
   lockstep, one *attempt* per step, entirely with array operations.
   Each step performs, per still-active trace, the identical IEEE-754
   double operations the scalar engine performs for that attempt —
   ``min(schedule, remaining)``, ``(t + w) + C``, the ``attempt_end <=
   next_failure`` test, the loss/outage accounting, the ``max_makespan``
   early exit — so every :class:`~repro.simulation.results
   .SimulationResult` field is **bit-identical** to the scalar engine's,
   by construction rather than by tolerance.

:func:`simulate_lower_bound_batch` replays the omniscient LowerBound the
same way (one *window* per lockstep step), and
:func:`simulate_policy_ensemble` is the dispatch used by the runner:
batch when the policy declares a static schedule, scalar fallback
otherwise.
"""

from __future__ import annotations

import math

from typing import Sequence

import numpy as np

from repro.distributions.base import FailureDistribution
from repro.policies.base import Policy, PolicyInfeasibleError, StaticSchedule
from repro.simulation.engine import (
    _WORK_EPS,
    _Engine,
    JobContext,
    simulate_job,
)
from repro.simulation.results import SimulationResult
from repro.traces.generation import JobTraces

__all__ = [
    "TraceEnsemble",
    "simulate_job_batch",
    "simulate_lower_bound_batch",
    "simulate_policy_ensemble",
]


# ----------------------------------------------------------------------
# phase 1: compile traces into policy-independent failure windows
# ----------------------------------------------------------------------


def _compile_fast(
    times: np.ndarray, d: float, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group an all-live sorted event stream into outage windows.

    An outage continues while the next event lands before the current
    recovery would finish, i.e. ``t_next < (t_prev + d) + r`` (the exact
    float expression the scalar engine compares against): cascades
    (``t_next <= t_prev + d``) extend the downtime, later events
    interrupt the recovery; either way the availability horizon becomes
    ``t_next + d``.  The platform resumes at ``(t_last + d) + r``.
    """
    if times.size == 0:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=np.int64)
    # both scalar clauses, in their exact float forms: cascade absorption
    # (t <= avail = t_prev + d; only reachable with r == 0) and recovery
    # interruption (avail + r > t)
    avail = times[:-1] + d
    cont = (times[1:] <= avail) | (times[1:] < avail + r)
    breaks = np.flatnonzero(~cont)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [times.size - 1]])
    fail = times[starts]
    resume = (times[ends] + d) + r
    cumfail = (ends + 1).astype(np.int64)
    return fail, resume, cumfail


def _compile_exact(
    traces: JobTraces, recovery: float, t0: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Reference compilation driving the scalar engine's event walk.

    Used when dead events (a unit failing inside its own downtime) are
    possible; exact by construction because it *is* the scalar walk.
    """
    eng = _Engine(traces, recovery, t0)
    t_start = eng.t
    fails: list[float] = []
    resumes: list[float] = []
    cumfail: list[int] = []
    while True:
        tf = eng.peek_next_failure()
        if math.isinf(tf):
            break
        resumed = eng.handle_failure(tf)
        fails.append(tf)
        resumes.append(resumed)
        cumfail.append(eng.n_failures)
    return (
        t_start,
        np.asarray(fails),
        np.asarray(resumes),
        np.asarray(cumfail, dtype=np.int64),
    )


def _compile_one(
    traces: JobTraces, recovery: float, t0: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(t_start, fail[], resume[], cumfail[]) for one trace."""
    d = traces.downtime
    ls0 = traces.lifetime_starts_at(t0)
    t_start = max(t0, float(ls0.max(initial=0.0)))
    # events strictly after t0 (the scalar engine starts its cursor
    # there; events exactly at t0 are neither replayed nor aged)
    active = traces.times > t0
    at = traces.times[active]
    au = traces.units[active]
    if at.size:
        dead_vs_start = ls0[au] > at
        if dead_vs_start.any():
            return _compile_exact(traces, recovery, t0)
        # dead-event guard in the scalar engine's exact comparison form
        # (t_next < lifetime_start = t_prev + d); the first dead event of
        # any unit is always preceded by a live one, so a consecutive
        # same-unit pairwise check catches every dead-event trace
        if traces.n_units == 1:
            if np.any(at[1:] < at[:-1] + d):
                return _compile_exact(traces, recovery, t0)
        else:
            order = np.lexsort((at, au))
            st, su = at[order], au[order]
            same = su[1:] == su[:-1]
            if np.any(same & (st[1:] < st[:-1] + d)):
                return _compile_exact(traces, recovery, t0)
    fail, resume, cumfail = _compile_fast(at, d, recovery)
    return t_start, fail, resume, cumfail


class TraceEnsemble:
    """Policy-independent failure-window structure of a trace list.

    Compiled once per (trace set, recovery, t0) and reused by every
    static-schedule replay — including every PeriodLB candidate period.
    Window ``j`` of trace ``r`` spans from its previous resume time (or
    ``t_start``) to ``fail[r, j]``; columns beyond a trace's last
    failure hold ``+inf`` so replay treats the tail as failure-free.
    """

    def __init__(
        self, traces: Sequence[JobTraces], recovery: float, t0: float = 0.0
    ):
        self.n_traces = len(traces)
        self.recovery = float(recovery)
        self.t0 = float(t0)
        compiled = [_compile_one(tr, recovery, t0) for tr in traces]
        self.t_start = np.asarray([c[0] for c in compiled])
        n_windows = max((c[1].size for c in compiled), default=0)
        self.fail = np.full((self.n_traces, n_windows + 1), np.inf)
        self.resume = np.zeros((self.n_traces, n_windows + 1))
        self.cumfail = np.zeros((self.n_traces, n_windows + 1), dtype=np.int64)
        for row, (_t, fail, resume, cumfail) in enumerate(compiled):
            self.fail[row, : fail.size] = fail
            self.resume[row, : fail.size] = resume
            self.cumfail[row, : fail.size] = cumfail
            self.cumfail[row, fail.size :] = cumfail[-1] if fail.size else 0

    @classmethod
    def compile(
        cls, traces: Sequence[JobTraces], recovery: float, t0: float = 0.0
    ) -> "TraceEnsemble":
        return cls(traces, recovery, t0)

    @classmethod
    def from_arrays(
        cls,
        t_start: np.ndarray,
        fail: np.ndarray,
        resume: np.ndarray,
        cumfail: np.ndarray,
        recovery: float,
        t0: float,
    ) -> "TraceEnsemble":
        """Rehydrate an ensemble from already-compiled window arrays
        (shared-memory attach, row subsets).  The arrays are adopted as
        given — callers pass copies when the backing store is transient.
        """
        obj = cls.__new__(cls)
        obj.n_traces = int(t_start.shape[0])
        obj.recovery = float(recovery)
        obj.t0 = float(t0)
        obj.t_start = t_start
        obj.fail = fail
        obj.resume = resume
        obj.cumfail = cumfail
        return obj

    def take(self, indices: Sequence[int]) -> "TraceEnsemble":
        """Row-subset ensemble for the given trace indices.

        Replay over the subset is bit-identical to compiling those
        traces alone: window columns beyond a trace's last failure hold
        ``+inf`` and never influence a replay, so keeping the global
        column width is inert.
        """
        rows = np.asarray(indices, dtype=np.int64)
        return TraceEnsemble.from_arrays(
            t_start=self.t_start[rows],
            fail=self.fail[rows],
            resume=self.resume[rows],
            cumfail=self.cumfail[rows],
            recovery=self.recovery,
            t0=self.t0,
        )


# ----------------------------------------------------------------------
# phase 2: lockstep replay
# ----------------------------------------------------------------------


def _replay_static(
    ensemble: TraceEnsemble,
    schedule: StaticSchedule,
    work_time: float,
    checkpoint: float,
    max_makespan: float,
) -> list[SimulationResult | None]:
    """Replay one static schedule against the compiled ensemble.

    All traces advance in lockstep, one attempt per step; every float
    update below mirrors the scalar engine's expression for the same
    attempt, operand for operand.
    """
    n = ensemble.n_traces
    t0 = ensemble.t0
    periodic = schedule.period is not None
    if not periodic:
        chunks = np.asarray(schedule.chunks, dtype=float)

    t = ensemble.t_start.copy()
    waiting = t - t0
    remaining = np.full(n, float(work_time))
    widx = np.zeros(n, dtype=np.int64)
    kidx = np.zeros(n, dtype=np.int64)
    fail_now = ensemble.fail[:, 0].copy() if n else np.empty(0)
    n_fail = np.zeros(n, dtype=np.int64)
    n_ckpt = np.zeros(n, dtype=np.int64)
    n_att = np.zeros(n, dtype=np.int64)
    lost = np.zeros(n)
    outage = np.zeros(n)
    chmin = np.full(n, np.inf)
    chmax = np.zeros(n)
    makespan = t - t0  # overwritten on completion; exact for 0-attempt runs
    completed = np.ones(n, dtype=bool)
    infeasible = np.zeros(n, dtype=bool)
    active = remaining > _WORK_EPS

    while active.any():
        if periodic:
            w = np.minimum(schedule.period, remaining)
        else:
            exhausted = active & (kidx >= chunks.size)
            if exhausted.any():
                infeasible[exhausted] = True
                active = active & ~exhausted
                if not active.any():
                    break
            w = np.minimum(chunks[np.minimum(kidx, chunks.size - 1)], remaining)
        chmin = np.where(active, np.minimum(chmin, w), chmin)
        chmax = np.where(active, np.maximum(chmax, w), chmax)
        n_att += active

        attempt_end = (t + w) + checkpoint
        success = active & (attempt_end <= fail_now)
        failure = active & ~success

        t = np.where(success, attempt_end, t)
        remaining = np.where(success, remaining - w, remaining)
        n_ckpt += success
        kidx += success

        f = np.flatnonzero(failure)
        if f.size:
            wi = widx[f]
            tf = ensemble.fail[f, wi]
            rs = ensemble.resume[f, wi]
            lost[f] += tf - t[f]
            outage[f] += rs - tf
            t[f] = rs
            n_fail[f] = ensemble.cumfail[f, wi]
            widx[f] = wi + 1
            kidx[f] = 0
            fail_now[f] = ensemble.fail[f, wi + 1]

        # scalar loop order: the max_makespan abort is checked right
        # after the attempt, before the remaining-work loop condition
        over = active & (t - t0 > max_makespan)
        if over.any():
            makespan = np.where(over, np.inf, makespan)
            completed = completed & ~over
            active = active & ~over
        done = active & (remaining <= _WORK_EPS)
        if done.any():
            makespan = np.where(done, t - t0, makespan)
            active = active & ~done

    results: list[SimulationResult | None] = []
    for i in range(n):
        if infeasible[i]:
            results.append(None)
            continue
        att = int(n_att[i])
        results.append(
            SimulationResult(
                makespan=float(makespan[i]),
                work_time=work_time,
                n_failures=int(n_fail[i]),
                n_checkpoints=int(n_ckpt[i]),
                n_attempts=att,
                chunk_min=float(chmin[i]) if att else math.nan,
                chunk_max=float(chmax[i]) if att else math.nan,
                completed=bool(completed[i]),
                time_lost=float(lost[i]),
                time_outage=float(outage[i]),
                time_waiting=float(waiting[i]),
            )
        )
    return results


def _probe_context(
    traces: Sequence[JobTraces],
    work_time: float,
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float,
    platform_mtbf: float,
) -> JobContext:
    """Scenario-level context for setup/static_schedule probing.

    Static schedules must not depend on runtime state, so the context is
    left unbound (``_lifetime_start=None``) — a policy that peeks at
    ``ctx.ages`` fails loudly instead of silently desynchronizing.
    """
    return JobContext(
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=traces[0].downtime,
        dist=dist,
        work_time=work_time,
        n_units=traces[0].n_units,
        platform_mtbf=platform_mtbf,
        t0=t0,
        time=t0,
        _lifetime_start=None,
    )


def simulate_job_batch(
    policy: Policy,
    work_time: float,
    traces: Sequence[JobTraces],
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
    ensemble: TraceEnsemble | None = None,
) -> list[SimulationResult | None] | None:
    """Batch-simulate ``policy`` over every trace at once.

    Returns None when the policy declares no static schedule (caller
    falls back to the scalar engine).  Otherwise returns one
    :class:`SimulationResult` per trace, bit-identical to
    :func:`repro.simulation.engine.simulate_job` on that trace; entries
    are None for traces on which a restarting schedule was exhausted
    (the scalar engine's mid-run :class:`PolicyInfeasibleError`).
    Setup-time infeasibility (e.g. Liu on large Weibull platforms)
    propagates as the exception, exactly as the scalar path raises it.

    Pass a precompiled ``ensemble`` to amortize window extraction across
    many policies of the same scenario.
    """
    if not traces:
        return []
    ctx = _probe_context(
        traces, work_time, checkpoint, recovery, dist, t0, platform_mtbf
    )
    policy.setup(ctx)
    schedule = policy.static_schedule(ctx)
    if schedule is None:
        return None
    if ensemble is None:
        ensemble = TraceEnsemble(traces, recovery, t0)
    return _replay_static(ensemble, schedule, work_time, checkpoint, max_makespan)


def simulate_lower_bound_batch(
    work_time: float,
    ensemble: TraceEnsemble,
    checkpoint: float,
) -> list[SimulationResult]:
    """Vectorized omniscient LowerBound over a compiled ensemble.

    Bit-identical to :func:`repro.simulation.engine.simulate_lower_bound`
    per trace; lockstep advances one failure window per step.
    """
    n = ensemble.n_traces
    t0 = ensemble.t0
    t = ensemble.t_start.copy()
    waiting = t - t0
    remaining = np.full(n, float(work_time))
    widx = np.zeros(n, dtype=np.int64)
    fail_now = ensemble.fail[:, 0].copy() if n else np.empty(0)
    n_fail = np.zeros(n, dtype=np.int64)
    n_ckpt = np.zeros(n, dtype=np.int64)
    lost = np.zeros(n)
    outage = np.zeros(n)
    makespan = t - t0
    active = remaining > _WORK_EPS

    while active.any():
        window = fail_now - t
        done = active & (remaining <= window)
        if done.any():
            t = np.where(done, t + remaining, t)
            makespan = np.where(done, t - t0, makespan)
            remaining = np.where(done, 0.0, remaining)
            active = active & ~done
        f = np.flatnonzero(active)
        if f.size == 0:
            break
        useful = np.maximum(0.0, window[f] - checkpoint)
        gained = useful > 0
        n_ckpt[f] += gained
        lost[f] += np.where(gained, 0.0, window[f])
        remaining[f] -= useful
        wi = widx[f]
        tf = ensemble.fail[f, wi]
        rs = ensemble.resume[f, wi]
        outage[f] += rs - tf
        t[f] = rs
        n_fail[f] = ensemble.cumfail[f, wi]
        widx[f] = wi + 1
        fail_now[f] = ensemble.fail[f, wi + 1]
        # the scalar loop re-checks remaining > eps before each window
        exhausted = active.copy()
        exhausted[f] = remaining[f] <= _WORK_EPS
        newly = active & exhausted
        if newly.any():
            makespan = np.where(newly, t - t0, makespan)
            active = active & ~newly

    return [
        SimulationResult(
            makespan=float(makespan[i]),
            work_time=work_time,
            n_failures=int(n_fail[i]),
            n_checkpoints=int(n_ckpt[i]),
            n_attempts=int(n_ckpt[i]),
            time_lost=float(lost[i]),
            time_outage=float(outage[i]),
            time_waiting=float(waiting[i]),
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def simulate_policy_ensemble(
    policy: Policy,
    work_time: float,
    traces: Sequence[JobTraces],
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
    ensemble: TraceEnsemble | None = None,
) -> list[SimulationResult | None]:
    """Run ``policy`` over ``traces``, batched when possible.

    The runner-facing dispatcher: one result per trace, with None
    marking (policy, trace) pairs on which the policy is infeasible —
    the same pairs the scalar engine reports.  Policies without a
    static schedule replay through the scalar engine.
    """
    try:
        batched = simulate_job_batch(
            policy,
            work_time,
            traces,
            checkpoint,
            recovery,
            dist,
            t0=t0,
            platform_mtbf=platform_mtbf,
            max_makespan=max_makespan,
            ensemble=ensemble,
        )
    except PolicyInfeasibleError:
        # setup-time infeasibility is scenario-wide: the scalar path
        # raises identically on every trace
        return [None] * len(traces)
    if batched is not None:
        return batched
    results: list[SimulationResult | None] = []
    for tr in traces:
        try:
            results.append(
                simulate_job(
                    policy,
                    work_time,
                    tr,
                    checkpoint,
                    recovery,
                    dist,
                    t0=t0,
                    platform_mtbf=platform_mtbf,
                    max_makespan=max_makespan,
                )
            )
        except PolicyInfeasibleError:
            results.append(None)
    return results
