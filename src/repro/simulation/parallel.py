"""Parallel execution layer for the simulation study.

The paper's experiments (Sections 4-6) evaluate ~10 policies over
hundreds of independent failure traces per scenario — embarrassingly
parallel work that the serial runner executed one (policy, trace) pair
at a time.  :class:`ParallelRunner` fans that work out over a
``concurrent.futures.ProcessPoolExecutor`` as one set of work units,
dispatched together:

1. **lockstep units** — batches of trace indices; each worker replays
   every static-schedule policy of the scenario plus the omniscient
   LowerBound over its traces in one lockstep pass
   (:func:`repro.simulation.batch.simulate_static_policies`);
2. **adaptive units** — batches of trace indices for the policies
   without a static schedule (the DP policies), replayed as lockstep
   lanes of the scalar engine loop: DPNextFailure's lanes suspend at
   each replan, and one step resolves every suspended lane's replan
   together, the cold solves stacked by lattice shape
   (:func:`repro.simulation.batch.simulate_policy_ensemble`);
3. **period units** — batches of PeriodLB candidate periods, each
   replayed in one lockstep pass over the search-subset traces.

PeriodLB's makespans are the winning candidate's lanes; only traces
outside the search subset (``period_lb_traces < n_traces``) are
replayed once more, after the search.

Determinism guarantee
---------------------
Results are **bit-identical** to the serial path for a fixed ``seed``,
by construction:

- trace ``i`` is always generated from
  ``numpy.random.SeedSequence([seed, i])`` — a function of the trace
  *index* alone, never of the batch it lands in or the worker that runs
  it;
- :func:`repro.simulation.engine.simulate_job` is deterministic given
  (policy parameters, trace), and every policy's per-trace state is
  reset by ``setup()``;
- batches are stitched back by index, and the PeriodLB winner is the
  ``argmin`` over the same sorted candidate array the serial path
  scans, of means taken over the same per-trace makespans in index
  order.

Running with ``jobs=1`` executes the identical unit functions in
process, so the serial path is the parallel path with a trivial
executor — there is no second implementation to drift.  ``jobs`` is
the only execution parameter: the DP table cache, the replan memo, the
batch replay and shared-memory publication are always on, and their
reference paths live in the test suite as oracles.  The persistent
disk tier has one process-wide switch,
:func:`repro.core.diskcache.configure_disk_cache`, which workers
inherit at fork.

Infeasible policies (:class:`repro.policies.base.PolicyInfeasibleError`,
e.g. Liu on large Weibull platforms) are recorded explicitly in
``ScenarioResult.infeasible`` as ``{policy name: [trace indices]}`` on
both paths; their makespans stay ``NaN`` as before, but the error is no
longer silently swallowed.

Caching is observable: workers return per-unit hit/miss deltas of the
DP table cache, the DPNextFailure replan memo and the persistent disk
tier (:mod:`repro.core.cache`, :mod:`repro.core.diskcache`), aggregated
into ``ScenarioResult.cache_*`` / ``memo_*`` / ``disk_*``.  Workers
share DP solves only through the disk tier: the first worker to solve
a replan signature persists it, and every later memo miss for it, in
any process, is a disk load.  With the tier off, each process solves
for itself.

Shared-memory trace publication: with ``jobs > 1`` the parent
generates all traces and compiles the scenario ensemble once,
publishes the arrays via :mod:`repro.simulation.shm`, and workers
attach and copy out only the ensemble rows of their work unit instead
of regenerating per task, and a trace only when a replay reads it
(adaptive lanes read all of theirs, the lockstep kernels only the
first); with ``jobs = 1`` the same generated set stays in process and
every unit takes its rows.  Any publish failure, or a failed attach at
the start of a unit, falls back silently to regeneration —
bit-identical by the determinism anchor above, shared memory only
changes who computes the traces.

Sweep-shared traces (:class:`SharedTraces`): the grid sweep engine
(:mod:`repro.simulation.sweep`) generates a group's trace set once and
hands it to every scenario of the group via ``run(..., shared=...)`` —
serial runs read the in-process trace list (ensemble row subsets via
:meth:`TraceEnsemble.take`), parallel runs reuse the group's single shm
publication.  Both channels carry the exact arrays the scenario would
have generated itself, so sharing never changes results.

Dispatch: trace units are one per worker of each kind (a serial run
has one of each): a lockstep pass pays its per-step Python overhead
once per unit, and the wider a DPNextFailure step, the more replans
share its lookups and stacked solves.  PeriodLB candidates are dealt
round-robin over ``jobs`` period units, so every unit gets short and
long periods alike.  Units are submitted in the order they are built
(adaptive, lockstep, period) and stitched back by trace index and
candidate position, so dispatch is invisible to results; the measured
per-unit wall-clock lands in ``ScenarioResult.scheduler``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.models import Platform
from repro.core.cache import cache_stats, replan_memo_stats
from repro.core.diskcache import disk_cache_stats, get_disk_cache
from repro.simulation import shm as _shm
from repro.policies.base import PeriodicPolicy, Policy
from repro.simulation.batch import (
    TraceEnsemble,
    simulate_lower_bound_batch,
    simulate_period_makespans,
    simulate_policy_ensemble,
    simulate_static_policies,
)
from repro.traces.generation import JobTraces, generate_platform_traces

__all__ = [
    "ParallelRunner",
    "SharedTraces",
    "set_default_execution",
    "resolve_jobs",
]


_default_jobs = 1


def set_default_execution(jobs: int | None = None) -> None:
    """Set the process-wide default worker count (CLI ``--jobs``,
    benchmark env) read by every runner given ``jobs=None``."""
    global _default_jobs
    if jobs is not None:
        _default_jobs = int(jobs)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: None -> process-wide default, 0 or
    negative -> one worker per available CPU."""
    if jobs is None:
        jobs = _default_jobs
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclass
class SharedTraces:
    """A scenario trace set (:func:`_build_trace_set`): one run's or a sweep group's.

    ``traces`` / ``ensemble`` are in-process references used on the
    serial path (``jobs <= 1``); ``layout`` is the shared-memory recipe
    parallel workers attach to.  Either channel delivers exactly the
    arrays the scenario would have generated from the determinism
    anchor, so handing a runner a ``SharedTraces`` can never change
    results — only who pays for generation and compilation.  The owner
    keeps the publication alive for the runner's whole ``run()`` and
    unlinks it afterwards.
    """

    traces: list
    ensemble: TraceEnsemble
    layout: object | None = None


# ----------------------------------------------------------------------
# work units (module level: picklable by ProcessPoolExecutor)
# ----------------------------------------------------------------------


def _declares_schedule(policy) -> bool:
    """Whether ``policy`` may declare a static schedule (it overrides
    :meth:`Policy.static_schedule`): such policies replay in lockstep
    units, every other one per trace in adaptive units."""
    return type(policy).static_schedule is not Policy.static_schedule


def _job_trace(platform: Platform, horizon: float, seed: int, index: int):
    """Trace ``index`` of the scenario — a pure function of
    ``(platform, horizon, seed, index)``, the determinism anchor."""
    return generate_platform_traces(
        platform.dist,
        platform.num_nodes,
        horizon,
        downtime=platform.downtime,
        seed=np.random.SeedSequence([int(seed), int(index)]),
    ).for_job(platform.num_nodes)


def _build_trace_set(
    platform: Platform,
    horizon: float,
    seed: int,
    n_traces: int,
    t0: float,
    publish: bool,
) -> tuple[SharedTraces, _shm.ScenarioPublication | None]:
    """Generate a scenario's traces and compile its ensemble once; with
    ``publish``, also publish both to shared memory for parallel workers.
    Returns the set and its publication (``None`` if unpublished), which
    the caller closes after its last run over the set."""
    traces = [_job_trace(platform, horizon, seed, i) for i in range(n_traces)]
    ensemble = TraceEnsemble(traces, platform.recovery, t0)
    publication = None
    if publish and traces:
        try:
            publication = _shm.publish_scenario(
                traces,
                ensemble,
                n_units=platform.num_nodes,
                downtime=platform.downtime,
                horizon=horizon,
                recovery=platform.recovery,
                t0=t0,
            )
        except Exception:
            # no shared memory here / size limits: workers regenerate
            # their rows instead (bit-identical)
            publication = None
    layout = publication.layout if publication is not None else None
    return SharedTraces(traces, ensemble, layout), publication


@dataclass
class _Scenario:
    """What every work unit of one run shares: the scenario parameters
    and where its traces come from."""

    platform: Platform
    work_time: float
    horizon: float
    t0: float
    seed: int
    max_makespan: float
    layout: object | None = None
    # in-process trace source (serial runs and sweep groups); never pickled —
    # parallel dispatch always leaves it None and uses ``layout``
    local: SharedTraces | None = None


class _PublishedTraces:
    """A unit's traces in the scenario's shared-memory publication, each
    copied out only when read (one attach per read); it has a length
    and iterates by index, like the list it stands in for.

    The lockstep kernels read only the compiled ensemble rows, and the
    unit count and downtime of the first trace, so the units of static
    schedules and of PeriodLB candidates copy out one trace instead of
    all of theirs; adaptive lanes, and the scalar-replay test oracle,
    read every trace.
    """

    def __init__(self, layout, indices: list[int]):
        self._layout = layout
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, position: int) -> JobTraces:
        index = self._indices[position]
        with _shm.attach_scenario(self._layout) as attached:
            return attached.job_traces(index)


def _task_traces(scenario: _Scenario, indices: list[int]):
    """A work unit's traces + compiled ensemble.

    Preferred sources, in order: an in-process :class:`SharedTraces`
    (``local``, serial runs and sweep groups — never crosses a process
    boundary), then the scenario's shared-memory publication
    (``layout``) — attach, copy the unit's ensemble rows, detach; the
    traces come as a :class:`_PublishedTraces` view.  Fallback (no
    layout, or an attach failure): regenerate from the determinism
    anchor and compile per batch.  All sources yield bit-identical
    traces, and a row subset of the global ensemble is
    replay-equivalent to a per-batch compilation (padding columns are
    inert), so the choice never affects results.
    """
    if scenario.local is not None:
        local = scenario.local
        return [local.traces[i] for i in indices], local.ensemble.take(indices)
    layout = scenario.layout
    if layout is not None:
        try:
            with _shm.attach_scenario(layout) as attached:
                ensemble = attached.ensemble_rows(indices)
            return _PublishedTraces(layout, indices), ensemble
        except Exception:
            # segment gone / platform quirk: drop the layout and
            # regenerate below (bit-identical by the determinism anchor)
            layout = None
    platform = scenario.platform
    traces = [
        _job_trace(platform, scenario.horizon, scenario.seed, index)
        for index in indices
    ]
    return traces, TraceEnsemble(traces, platform.recovery, scenario.t0)


def _replay(scenario: _Scenario, policy, traces, ensemble):
    """``policy`` over a unit's traces: one result per trace, None
    where the policy is infeasible."""
    platform = scenario.platform
    return simulate_policy_ensemble(
        policy,
        scenario.work_time,
        traces,
        platform.checkpoint,
        platform.recovery,
        platform.dist,
        t0=scenario.t0,
        platform_mtbf=platform.platform_mtbf,
        max_makespan=scenario.max_makespan,
        ensemble=ensemble,
    )


def _replay_schedules(scenario: _Scenario, policies, traces, ensemble):
    """Every static-schedule policy of ``policies`` over a unit's traces
    in one lockstep pass; None for a policy without a schedule."""
    platform = scenario.platform
    return simulate_static_policies(
        policies,
        scenario.work_time,
        traces,
        platform.checkpoint,
        platform.recovery,
        platform.dist,
        t0=scenario.t0,
        platform_mtbf=platform.platform_mtbf,
        max_makespan=scenario.max_makespan,
        ensemble=ensemble,
    )


#: ScenarioResult counters every work unit reports as deltas.
_UNIT_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "memo_hits",
    "memo_misses",
    "disk_hits",
    "disk_misses",
    "disk_evictions",
)


def _counter_readings() -> tuple[int, ...]:
    """This process's counters, in ``_UNIT_COUNTERS`` order."""
    cache, memo, disk = cache_stats(), replan_memo_stats(), disk_cache_stats()
    return (
        cache.hits,
        cache.misses,
        memo.hits,
        memo.misses,
        disk.hits,
        disk.misses,
        disk.evictions,
    )


@dataclass
class _UnitStats:
    """What every work unit reports besides its results."""

    counters: dict[str, int]
    # wall-clock the unit took in its worker (scheduler diagnostics)
    unit_seconds: float


class _UnitMeter:
    """Measures one work unit from construction to :meth:`finish`."""

    def __init__(self) -> None:
        self.start = time.perf_counter()  # reprolint: clock-ok=scheduler diagnostics
        self.before = _counter_readings()

    def finish(self) -> _UnitStats:
        after = _counter_readings()
        # persist hit counters a hit-only worker would otherwise never flush
        get_disk_cache().flush_counters()
        return _UnitStats(
            counters={
                name: a - b
                for name, a, b in zip(_UNIT_COUNTERS, after, self.before)
            },
            unit_seconds=time.perf_counter() - self.start,  # reprolint: clock-ok=scheduler diagnostics
        )


@dataclass
class _TraceTask:
    """Trace unit: run ``policies`` over the traces in ``indices``."""

    scenario: _Scenario
    indices: list[int]
    policies: list
    include_lower_bound: bool


@dataclass
class _TraceTaskResult:
    indices: list[int]
    # per policy name: list of (makespan, SimulationResult | None) in
    # index order; None marks an infeasible (policy, trace) pair
    per_policy: dict[str, list[tuple[float, object]]]
    infeasible: dict[str, list[int]]
    lower_bound: list[float]
    stats: _UnitStats


def _run_trace_task(task: _TraceTask) -> _TraceTaskResult:
    meter = _UnitMeter()
    per_policy: dict[str, list[tuple[float, object]]] = {}
    infeasible: dict[str, list[int]] = {}
    # One compiled ensemble serves every policy of the batch (and the
    # LowerBound).  The static-schedule policies replay together in one
    # lockstep pass; the others through the per-policy dispatcher.
    traces, ensemble = _task_traces(task.scenario, task.indices)
    scheduled = [p for p in task.policies if _declares_schedule(p)]
    replayed = dict(
        zip(
            map(id, scheduled),
            _replay_schedules(task.scenario, scheduled, traces, ensemble),
        )
    )
    for policy in task.policies:
        results = replayed.get(id(policy))
        if results is None:
            results = _replay(task.scenario, policy, traces, ensemble)
        pairs: list[tuple[float, object]] = []
        for index, res in zip(task.indices, results):
            if res is None:
                pairs.append((math.nan, None))
                infeasible.setdefault(policy.name, []).append(index)
            else:
                pairs.append((res.makespan, res))
        per_policy[policy.name] = pairs
    lower_bound: list[float] = []
    if task.include_lower_bound:
        lower_bound = [
            res.makespan
            for res in simulate_lower_bound_batch(
                task.scenario.work_time,
                ensemble,
                task.scenario.platform.checkpoint,
            )
        ]
    return _TraceTaskResult(
        indices=list(task.indices),
        per_policy=per_policy,
        infeasible=infeasible,
        lower_bound=lower_bound,
        stats=meter.finish(),
    )


@dataclass
class _PeriodTask:
    """Period unit: every candidate period over the search-subset
    traces."""

    scenario: _Scenario
    subset_indices: list[int]
    periods: list[float]


@dataclass
class _PeriodTaskResult:
    # (len(periods), len(subset_indices)) makespans, in candidate and
    # trace index order
    makespans: np.ndarray
    stats: _UnitStats


def _run_period_task(task: _PeriodTask) -> _PeriodTaskResult:
    meter = _UnitMeter()
    # The compiled ensemble is period-independent: every candidate of
    # the unit replays over it in one lockstep pass.
    traces, ensemble = _task_traces(task.scenario, task.subset_indices)
    scenario = task.scenario
    makespans = simulate_period_makespans(
        task.periods,
        scenario.work_time,
        traces,
        scenario.platform.checkpoint,
        scenario.platform.recovery,
        t0=scenario.t0,
        max_makespan=scenario.max_makespan,
        ensemble=ensemble,
    )
    return _PeriodTaskResult(makespans=makespans, stats=meter.finish())


def _chunk(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class ParallelRunner:
    """Scenario executor: serial in process (``jobs=1``) or fanned out
    over worker processes (``jobs>1``), with identical results.

    Parameters
    ----------
    jobs:
        Worker processes; None reads the process-wide default
        (:func:`set_default_execution`), 0 or negative uses every CPU.
    progress:
        Optional callback ``progress(done, total)`` invoked after every
        completed work unit (trace batch, period batch, winner batch).
        ``total`` grows when the winner replay enqueues its units, so
        treat it as the best current estimate, not a constant.  Used by the
        scenario service for its status/stream JSON; never affects
        results.  Exceptions raised by the callback propagate.
    executor:
        Optional externally-owned ``ProcessPoolExecutor`` to dispatch
        on instead of spinning one pool per dispatch.  The sweep engine
        passes one pool for a whole grid, amortizing worker startup
        over every scenario; the caller owns its shutdown.  Ignored on
        serial runs.
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        executor: ProcessPoolExecutor | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        self._executor = executor
        self._units_done = 0
        self._units_total = 0
        # measured per-unit seconds, accumulated across dispatches for
        # ScenarioResult.scheduler
        self._sched_seconds: list[float] = []

    # -- internal dispatch ---------------------------------------------

    def _unit_done(self) -> None:
        self._units_done += 1
        if self.progress is not None:
            self.progress(self._units_done, self._units_total)

    def _map(self, calls: list[tuple[Callable, object]]):
        """Run every ``(fn, task)`` call, in process or on the pool,
        submitted in call order; results come back in call order either
        way.  Each completed call ticks the progress callback."""
        self._units_total += len(calls)
        if self.jobs <= 1 or len(calls) <= 1:
            out = []
            for fn, task in calls:
                out.append(fn(task))
                self._unit_done()
            return out
        if self._executor is not None:
            pool, owns = self._executor, False
        else:
            workers = min(self.jobs, len(calls))
            pool, owns = ProcessPoolExecutor(max_workers=workers), True
        try:
            futures = [pool.submit(fn, task) for fn, task in calls]
            out = []
            for future in futures:
                out.append(future.result())
                self._unit_done()
            return out
        finally:
            if owns:
                pool.shutdown()

    def _trace_batches(self, indices: list[int]) -> list[list[int]]:
        """Split trace indices into one work unit per worker.

        A unit replays its traces as lockstep lanes: static schedules
        pay their per-step Python overhead once per unit whatever the
        lane count, and DPNextFailure lanes share each step's replan
        lookups and stacked solves, so fewer, larger units are cheaper
        on every kind.  Batching never affects results (traces are
        stitched back by index).
        """
        size = max(1, math.ceil(len(indices) / max(1, self.jobs)))
        return _chunk(indices, size)

    def _scheduler_stats(self) -> dict:
        """JSON-ready summary of the run's units and their measured
        wall-clock (max/mean imbalance)."""
        seconds = [s for s in self._sched_seconds if s > 0.0]
        stats: dict = {"units": self._units_total}
        if seconds:
            mean_s = sum(seconds) / len(seconds)
            stats["unit_seconds_max"] = max(seconds)
            stats["unit_seconds_mean"] = mean_s
            stats["seconds_imbalance"] = (
                max(seconds) / mean_s if mean_s > 0 else 1.0
            )
        return stats

    # -- public API ----------------------------------------------------

    def run(
        self,
        policies: list,
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
        shared: SharedTraces | None = None,
    ):
        """Run ``policies`` over ``n_traces`` generated traces; see
        :func:`repro.simulation.runner.run_scenarios` for semantics.

        ``shared`` hands the runner a pre-built trace set (sweep
        groups): generation/publication is skipped and the caller keeps
        the backing publication alive for the duration of the call.
        Bit-identical to self-generation by the determinism anchor.
        """
        # diagnostic elapsed-time only; never feeds simulation state
        start = time.perf_counter()  # reprolint: clock-ok=diagnostic elapsed time
        self._units_done = 0
        self._units_total = 0
        self._sched_seconds = []
        scenario = _Scenario(
            platform=platform,
            work_time=work_time,
            horizon=horizon,
            t0=t0,
            seed=seed,
            max_makespan=max_makespan,
        )
        # The lockstep, adaptive and period units all read one trace set:
        # a sweep group's (its owner built and published it), or this
        # scenario's own.  Serial runs read it in process; parallel
        # workers attach to its publication.
        publication = None
        trace_set = shared
        if trace_set is None and n_traces > 0:
            trace_set, publication = _build_trace_set(
                platform, horizon, seed, n_traces, t0, publish=self.jobs > 1
            )
        if trace_set is not None:
            scenario.layout = trace_set.layout
            if self.jobs <= 1:
                scenario.local = trace_set
        try:
            result = self._run_phases(
                scenario,
                policies,
                n_traces,
                include_lower_bound,
                include_period_lb,
                period_lb_factors,
                period_lb_traces,
            )
        finally:
            if publication is not None:
                publication.close()
        # Shared traces count as reused only when a sharing channel was
        # actually wired up: the in-process list (serial) or the group's
        # shm layout (parallel) — jobs>1 without a layout regenerates.
        reused = shared is not None and (
            scenario.local is not None or scenario.layout is not None
        )
        result.trace_gen_reused = reused
        result.elapsed = time.perf_counter() - start  # reprolint: clock-ok=diagnostic elapsed time
        return result

    def _run_phases(
        self,
        scenario: _Scenario,
        policies,
        n_traces,
        include_lower_bound,
        include_period_lb,
        period_lb_factors,
        period_lb_traces,
    ):
        # Imported here: runner imports this module's config helpers, so
        # a module-level import would be circular.
        from repro.simulation.runner import LOWER_BOUND, PERIOD_LB, ScenarioResult
        from repro.simulation.runner import _optexp_period

        platform = scenario.platform
        work_time = scenario.work_time
        totals = dict.fromkeys(_UNIT_COUNTERS, 0)

        def _absorb(stats: _UnitStats) -> None:
            for name, delta in stats.counters.items():
                totals[name] += delta
            self._sched_seconds.append(stats.unit_seconds)

        # Every unit of the scenario is built up front and dispatched
        # together, in the order built.
        indices = list(range(n_traces))
        calls: list[tuple[Callable, object]] = []
        static = [p for p in policies if _declares_schedule(p)]
        adaptive = [p for p in policies if not _declares_schedule(p)]
        if adaptive:
            for batch in self._trace_batches(indices):
                calls.append(
                    (_run_trace_task, _TraceTask(scenario, batch, adaptive, False))
                )
        if static or include_lower_bound:
            for batch in self._trace_batches(indices):
                calls.append(
                    (
                        _run_trace_task,
                        _TraceTask(scenario, batch, static, include_lower_bound),
                    )
                )

        if include_period_lb:
            from repro.policies.periodlb import candidate_factors

            subset = indices[: (period_lb_traces or n_traces)]
            factors = (
                period_lb_factors
                if period_lb_factors is not None
                else candidate_factors()
            )
            base = _optexp_period(platform, work_time)
            periods = np.asarray(sorted(base * np.asarray(factors, dtype=float)))
            # Candidates are dealt round-robin, so every unit gets short
            # and long periods alike; the rows go back in sorted-period
            # order before the argmin.
            n = periods.size
            groups = [list(range(w, n, self.jobs)) for w in range(min(self.jobs, n))]
            for group in groups:
                calls.append(
                    (
                        _run_period_task,
                        _PeriodTask(
                            scenario=scenario,
                            subset_indices=subset,
                            periods=[float(periods[i]) for i in group],
                        ),
                    )
                )

        makespans: dict[str, np.ndarray] = {
            p.name: np.full(n_traces, np.nan) for p in policies
        }
        details: dict[str, list] = {p.name: [None] * n_traces for p in policies}
        infeasible: dict[str, list[int]] = {}
        lb_spans = np.full(n_traces, np.nan)
        candidate_spans: list[np.ndarray] = []
        for res in self._map(calls):
            _absorb(res.stats)
            if isinstance(res, _PeriodTaskResult):
                candidate_spans.append(res.makespans)
                continue
            for name, pairs in res.per_policy.items():
                for index, (span, det) in zip(res.indices, pairs):
                    makespans[name][index] = span
                    details[name][index] = det
            for name, idxs in res.infeasible.items():
                infeasible.setdefault(name, []).extend(idxs)
            if res.lower_bound:
                for index, span in zip(res.indices, res.lower_bound):
                    lb_spans[index] = span
        for name in infeasible:
            infeasible[name].sort()
        if include_lower_bound:
            makespans[LOWER_BOUND] = lb_spans

        best_period = math.nan
        if include_period_lb:
            dealt = np.concatenate(candidate_spans)
            spans = np.empty_like(dealt)
            spans[[i for group in groups for i in group]] = dealt
            means = [float(np.mean(row)) for row in spans]
            best = int(np.argmin(means))
            best_period = float(periods[best])
            # the winner's candidate lanes are its PeriodLB replays; only
            # traces outside the search subset still need one
            lb_period_spans = np.full(n_traces, np.nan)
            lb_period_spans[: len(subset)] = spans[best]
            rest = indices[len(subset) :]
            if rest:
                winner = [PeriodicPolicy(best_period, name=PERIOD_LB)]
                winner_calls: list[tuple[Callable, object]] = [
                    (_run_trace_task, _TraceTask(scenario, batch, winner, False))
                    for batch in self._trace_batches(rest)
                ]
                for res in self._map(winner_calls):
                    _absorb(res.stats)
                    for index, (span, _det) in zip(
                        res.indices, res.per_policy[PERIOD_LB]
                    ):
                        lb_period_spans[index] = span
            makespans[PERIOD_LB] = lb_period_spans

        return ScenarioResult(
            makespans=makespans,
            details=details,
            work_time=scenario.work_time,
            best_period=best_period,
            infeasible=infeasible,
            n_jobs=self.jobs,
            scheduler=self._scheduler_stats(),
            **totals,
        )
