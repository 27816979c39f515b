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

2. **Replay** (:func:`_replay_lanes`): one *lane* per (schedule, trace)
   pair, so every static policy of a scenario — or every PeriodLB
   candidate — replays in one call.  All lanes advance in lockstep, one
   *attempt* per step, entirely with array operations.  Each step
   performs, per still-active lane, the identical IEEE-754 double
   operations the scalar engine performs for that attempt —
   ``min(schedule, remaining)``, ``(t + w) + C``, the ``attempt_end <=
   next_failure`` test, the loss/outage accounting, the
   ``max_makespan`` early exit — so every :class:`~repro.simulation
   .results.SimulationResult` field is **bit-identical** to the scalar
   engine's, by construction rather than by tolerance.  Lanes read the
   window arrays through a lane-to-row index, and the lane state is
   compacted to the active lanes whenever at most half are still
   running.  The kernel returns arrays (:class:`LaneResults`); result
   records are built only where a caller keeps them.

:func:`simulate_static_policies` replays a list of policies in one pass
(the runner's lockstep units), :func:`simulate_period_makespans` a list
of periods (the PeriodLB search; makespans only) and
:func:`simulate_job_batch` one policy.
:func:`simulate_lower_bound_batch` replays the omniscient LowerBound the
same way (one *window* per lockstep step), and
:func:`simulate_policy_ensemble` is the one-policy dispatch: batch when
the policy declares a static schedule, otherwise one lane per trace of
the scalar engine loop, advanced in lockstep from one plan request to
the next so that DPNextFailure's replans resolve together.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from repro.distributions.base import FailureDistribution
from repro.policies.base import Policy, PolicyInfeasibleError, StaticSchedule
from repro.simulation.engine import (
    _WORK_EPS,
    _Engine,
    JobContext,
    job_steps,
)
from repro.simulation.results import SimulationResult
from repro.traces.generation import JobTraces

__all__ = [
    "LaneResults",
    "TraceEnsemble",
    "simulate_job_batch",
    "simulate_lower_bound_batch",
    "simulate_period_makespans",
    "simulate_policy_ensemble",
    "simulate_static_policies",
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
# phase 2: lockstep replay over (schedule, trace) lanes
# ----------------------------------------------------------------------

#: Chunk budget of a periodic lane: it never runs out of chunks.
_UNBOUNDED = np.iinfo(np.int64).max


@dataclass
class LaneResults:
    """Outcomes of one lockstep replay, one entry per lane.

    Lane ``s * n_traces + r`` is schedule ``s`` replayed over ensemble
    row ``r``; :meth:`results` turns one schedule's lanes into
    :class:`SimulationResult` records.
    """

    work_time: float
    n_traces: int
    makespan: np.ndarray
    n_failures: np.ndarray
    n_checkpoints: np.ndarray
    n_attempts: np.ndarray
    chunk_min: np.ndarray
    chunk_max: np.ndarray
    completed: np.ndarray
    infeasible: np.ndarray
    time_lost: np.ndarray
    time_outage: np.ndarray
    time_waiting: np.ndarray

    def results(self, schedule: int) -> list[SimulationResult | None]:
        """Schedule ``schedule``'s per-trace records, None where a
        restarting schedule ran out of chunks."""
        out: list[SimulationResult | None] = []
        for i in range(schedule * self.n_traces, (schedule + 1) * self.n_traces):
            if self.infeasible[i]:
                out.append(None)
                continue
            att = int(self.n_attempts[i])
            out.append(
                SimulationResult(
                    makespan=float(self.makespan[i]),
                    work_time=self.work_time,
                    n_failures=int(self.n_failures[i]),
                    n_checkpoints=int(self.n_checkpoints[i]),
                    n_attempts=att,
                    chunk_min=float(self.chunk_min[i]) if att else math.nan,
                    chunk_max=float(self.chunk_max[i]) if att else math.nan,
                    completed=bool(self.completed[i]),
                    time_lost=float(self.time_lost[i]),
                    time_outage=float(self.time_outage[i]),
                    time_waiting=float(self.time_waiting[i]),
                )
            )
        return out


def _replay_lanes(
    ensemble: TraceEnsemble,
    schedules: Sequence[StaticSchedule],
    work_time: float,
    checkpoint: float,
    max_makespan: float,
) -> LaneResults:
    """Replay every schedule over every ensemble row in one lockstep
    pass.

    One lane per (schedule, row) pair; all lanes advance together, one
    attempt per step, and every float update below mirrors the scalar
    engine's expression for the same attempt, operand for operand, so
    each lane is bit-identical to :func:`simulate_job` on its trace.
    Each lane's chunk is read from a per-schedule table: a periodic
    schedule is one column holding its period with an unbounded chunk
    budget, a restarting schedule (Liu) its padded chunk list.  Lanes
    read the window arrays through their row index.  Whenever at most
    half of the held lanes are still active, the state is compacted to
    the active ones, so a few long lanes (short periods) do not keep
    every finished lane in the arithmetic.
    """
    n_rows = ensemble.n_traces
    n_sched = len(schedules)
    n = n_sched * n_rows
    t0 = ensemble.t0
    width = max(
        [1] + [len(s.chunks) for s in schedules if s.chunks is not None]
    )
    table = np.empty((n_sched, width))
    budget = np.empty(n_sched, dtype=np.int64)
    for i, s in enumerate(schedules):
        if s.chunks is None:
            table[i] = s.period
            budget[i] = _UNBOUNDED
        else:
            chunks = np.asarray(s.chunks, dtype=float)
            table[i, : chunks.size] = chunks
            table[i, chunks.size :] = chunks[-1] if chunks.size else 1.0
            budget[i] = chunks.size

    # global (per-lane) outputs; the counters are flushed from the
    # compacted state, the verdicts written when a lane finishes
    rows_all = np.tile(np.arange(n_rows), n_sched)
    t_start = ensemble.t_start[rows_all]
    out = LaneResults(
        work_time=work_time,
        n_traces=n_rows,
        makespan=t_start - t0,  # overwritten on completion; exact for 0-attempt lanes
        n_failures=np.zeros(n, dtype=np.int64),
        n_checkpoints=np.zeros(n, dtype=np.int64),
        n_attempts=np.zeros(n, dtype=np.int64),
        chunk_min=np.full(n, np.inf),
        chunk_max=np.zeros(n),
        completed=np.ones(n, dtype=bool),
        infeasible=np.zeros(n, dtype=bool),
        time_lost=np.zeros(n),
        time_outage=np.zeros(n),
        time_waiting=t_start - t0,
    )

    # compactable lane state
    lane = np.arange(n)
    row = rows_all
    sched = np.repeat(np.arange(n_sched), n_rows)
    chunk_budget = budget[sched]
    last = np.minimum(chunk_budget, width) - 1
    np.maximum(last, 0, out=last)
    period = table[sched, 0]
    restarting = bool(np.any(chunk_budget != _UNBOUNDED))
    t = t_start.copy()
    remaining = np.full(n, float(work_time))
    widx = np.zeros(n, dtype=np.int64)
    kidx = np.zeros(n, dtype=np.int64)
    fail_now = ensemble.fail[row, 0]
    n_fail = out.n_failures.copy()
    n_ckpt = out.n_checkpoints.copy()
    n_att = out.n_attempts.copy()
    lost = out.time_lost.copy()
    outage = out.time_outage.copy()
    chmin = out.chunk_min.copy()
    chmax = out.chunk_max.copy()
    active = remaining > _WORK_EPS
    capped = max_makespan < math.inf

    def flush() -> None:
        out.n_failures[lane] = n_fail
        out.n_checkpoints[lane] = n_ckpt
        out.n_attempts[lane] = n_att
        out.time_lost[lane] = lost
        out.time_outage[lane] = outage
        out.chunk_min[lane] = chmin
        out.chunk_max[lane] = chmax

    while True:
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            break
        if 2 * n_active <= active.size:
            flush()
            keep = np.flatnonzero(active)
            (
                lane, row, sched, chunk_budget, last, period, t, remaining,
                widx, kidx, fail_now, n_fail, n_ckpt, n_att, lost, outage,
                chmin, chmax, active,
            ) = (
                a[keep]
                for a in (
                    lane, row, sched, chunk_budget, last, period, t,
                    remaining, widx, kidx, fail_now, n_fail, n_ckpt, n_att,
                    lost, outage, chmin, chmax, active,
                )
            )
            restarting = bool(np.any(chunk_budget != _UNBOUNDED))
        if restarting:
            exhausted = active & (kidx >= chunk_budget)
            if exhausted.any():
                out.infeasible[lane[exhausted]] = True
                active &= ~exhausted
                if not active.any():
                    break
            w = np.minimum(table[sched, np.minimum(kidx, last)], remaining)
        else:
            w = np.minimum(period, remaining)
        np.minimum(chmin, w, out=chmin, where=active)
        np.maximum(chmax, w, out=chmax, where=active)
        n_att += active

        attempt_end = (t + w) + checkpoint
        success = attempt_end <= fail_now
        success &= active
        failure = active ^ success

        np.copyto(t, attempt_end, where=success)
        np.subtract(remaining, w, out=remaining, where=success)
        n_ckpt += success
        if restarting:
            kidx += success

        f = np.flatnonzero(failure)
        if f.size:
            r = row[f]
            wi = widx[f]
            tf = ensemble.fail[r, wi]
            rs = ensemble.resume[r, wi]
            lost[f] += tf - t[f]
            outage[f] += rs - tf
            t[f] = rs
            n_fail[f] = ensemble.cumfail[r, wi]
            widx[f] = wi + 1
            kidx[f] = 0
            fail_now[f] = ensemble.fail[r, wi + 1]

        # scalar loop order: the max_makespan abort is checked right
        # after the attempt, before the remaining-work loop condition
        if capped:
            over = active & (t - t0 > max_makespan)
            if over.any():
                ids = lane[over]
                out.makespan[ids] = np.inf
                out.completed[ids] = False
                active &= ~over
        done = active & (remaining <= _WORK_EPS)
        if done.any():
            out.makespan[lane[done]] = t[done] - t0
            active &= ~done

    flush()
    return out


def _probe_context(
    work_time: float,
    checkpoint: float,
    recovery: float,
    downtime: float,
    n_units: int,
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
        downtime=downtime,
        dist=dist,
        work_time=work_time,
        n_units=n_units,
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
    first = traces[0]
    ctx = _probe_context(
        work_time,
        checkpoint,
        recovery,
        first.downtime,
        first.n_units,
        dist,
        t0,
        platform_mtbf,
    )
    policy.setup(ctx)
    schedule = policy.static_schedule(ctx)
    if schedule is None:
        return None
    if ensemble is None:
        ensemble = TraceEnsemble(traces, recovery, t0)
    return _replay_lanes(
        ensemble, [schedule], work_time, checkpoint, max_makespan
    ).results(0)


def simulate_static_policies(
    policies: Sequence[Policy],
    work_time: float,
    traces: Sequence[JobTraces],
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
    ensemble: TraceEnsemble | None = None,
) -> list[list[SimulationResult | None] | None]:
    """Replay every static-schedule policy of ``policies`` over
    ``traces`` in one lockstep pass.

    Entry ``i`` is policy ``i``'s per-trace results, exactly what
    :func:`simulate_policy_ensemble` returns for it: None marks an
    infeasible (policy, trace) pair, and setup-time infeasibility makes
    every pair None.  The entry itself is None when the policy declares
    no static schedule; the caller replays it with
    :func:`simulate_policy_ensemble`.
    """
    out: list[list[SimulationResult | None] | None] = [None] * len(policies)
    if not traces:
        return [[] for _ in policies]
    first = traces[0]
    schedules: list[StaticSchedule] = []
    owners: list[int] = []
    for i, policy in enumerate(policies):
        ctx = _probe_context(
            work_time,
            checkpoint,
            recovery,
            first.downtime,
            first.n_units,
            dist,
            t0,
            platform_mtbf,
        )
        try:
            policy.setup(ctx)
            schedule = policy.static_schedule(ctx)
        except PolicyInfeasibleError:
            # scenario-wide: the scalar path raises identically per trace
            out[i] = [None] * len(traces)
            continue
        if schedule is not None:
            schedules.append(schedule)
            owners.append(i)
    if schedules:
        if ensemble is None:
            ensemble = TraceEnsemble(traces, recovery, t0)
        lanes = _replay_lanes(
            ensemble, schedules, work_time, checkpoint, max_makespan
        )
        for s, i in enumerate(owners):
            out[i] = lanes.results(s)
    return out


def simulate_period_makespans(
    periods: Sequence[float],
    work_time: float,
    traces: Sequence[JobTraces],
    checkpoint: float,
    recovery: float,
    t0: float = 0.0,
    max_makespan: float = math.inf,
    ensemble: TraceEnsemble | None = None,
) -> np.ndarray:
    """Makespans of a periodic policy for every period and trace, from
    one lockstep pass: row ``i`` is ``PeriodicPolicy(periods[i])`` over
    ``traces``, bit-identical to the scalar engine.  Only the makespans
    are kept; no result records are built.
    """
    if ensemble is None:
        ensemble = TraceEnsemble(traces, recovery, t0)
    lanes = _replay_lanes(
        ensemble,
        [StaticSchedule(period=float(p)) for p in periods],
        work_time,
        checkpoint,
        max_makespan,
    )
    return lanes.makespan.reshape(len(periods), ensemble.n_traces)


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
    static schedule replay as lockstep lanes of the scalar engine loop
    (:func:`_replay_adaptive_lanes`).
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
    return _replay_adaptive_lanes(
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


def _replay_adaptive_lanes(
    policy: Policy,
    work_time: float,
    traces: Sequence[JobTraces],
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> list[SimulationResult | None]:
    """``policy`` over every trace, one lane per trace, bit-identical to
    :func:`simulate_job` per trace (None where the policy is infeasible).

    Each lane is the scalar engine loop (:func:`job_steps`) on a copy
    of the policy.  It runs until its policy waits on a plan, then
    suspends.  One lockstep step answers every suspended lane's request
    together (``resolve_all``: DPNextFailure's replans share the cache
    lookups, and the cold solves of one lattice shape run stacked) and
    resumes the lanes.  A policy that makes no requests replays each
    lane to its end in one go.
    """
    results: list[SimulationResult | None] = [None] * len(traces)
    suspended: list[tuple[int, Generator, object]] = []

    def resume(lane: int, steps: Generator, plan) -> None:
        try:
            request = steps.send(plan)
        except StopIteration as done:
            results[lane] = done.value
        except PolicyInfeasibleError:
            pass  # the lane's result stays None
        else:
            suspended.append((lane, steps, request))

    for lane, tr in enumerate(traces):
        steps = job_steps(
            copy.copy(policy),
            work_time,
            tr,
            checkpoint,
            recovery,
            dist,
            t0=t0,
            platform_mtbf=platform_mtbf,
            max_makespan=max_makespan,
        )
        resume(lane, steps, None)
    while suspended:
        step, suspended = suspended, []
        requests = [request for _lane, _steps, request in step]
        plans = requests[0].resolve_all(requests)
        for (lane, steps, _request), plan in zip(step, plans):
            resume(lane, steps, plan)
    return results
