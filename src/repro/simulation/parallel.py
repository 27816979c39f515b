"""Parallel execution layer for the simulation study.

The paper's experiments (Sections 4-6) evaluate ~10 policies over
hundreds of independent failure traces per scenario — embarrassingly
parallel work that the serial runner executed one (policy, trace) pair
at a time.  :class:`ParallelRunner` fans that work out over a
``concurrent.futures.ProcessPoolExecutor`` in three phases:

1. **trace phase** — batches of trace indices; each worker regenerates
   its traces and runs every policy (plus the omniscient LowerBound);
2. **period-search phase** — batches of PeriodLB candidate periods,
   each evaluated over the search-subset traces;
3. **winner phase** — the best period's policy over all traces.

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
  ``argmin`` over the same sorted candidate array the serial path scans.

Running with ``jobs=1`` executes the identical unit functions in
process, so the serial path is the parallel path with a trivial
executor — there is no second implementation to drift.

Infeasible policies (:class:`repro.policies.base.PolicyInfeasibleError`,
e.g. Liu on large Weibull platforms) are recorded explicitly in
``ScenarioResult.infeasible`` as ``{policy name: [trace indices]}`` on
both paths; their makespans stay ``NaN`` as before, but the error is no
longer silently swallowed.

DP table caching is controlled per run (``use_cache``) and observable:
workers return per-unit hit/miss deltas of :mod:`repro.core.cache`,
aggregated into ``ScenarioResult.cache_hits`` / ``cache_misses``.  The
DPNextFailure replan memo (``use_memo``) is handled the same way, with
deltas aggregated into ``memo_hits`` / ``memo_misses``.  Because those
sums add up *per-worker* counters, a signature solved independently by
N workers contributes N misses; ``ScenarioResult.memo_unique_misses``
reports the deduplicated view — the number of distinct memo entries
actually solved — so shared-memo gains are visible rather than drowned
in double counts.

The persistent disk tier (``use_disk_cache``,
:mod:`repro.core.diskcache`) sits below both in-memory caches: workers
report per-unit disk hit/miss/evict deltas, aggregated into
``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``.
With ``jobs > 1`` the replan memo is additionally **shared across
workers**: each work unit ships the memo entries it added back to the
parent, which merges them (:func:`repro.simulation.shm.merge_memo_delta`)
so later phases fork warm, while the disk tier shares solves between
workers inside a phase.

Shared-memory trace publication (``use_shm``, default on): with
``jobs > 1`` the parent generates all traces and compiles the scenario
ensemble once, publishes the arrays via
:mod:`repro.simulation.shm`, and workers attach and copy out only the
rows of their work unit instead of regenerating per task (previously a
trace could be rebuilt once per phase).  Any publish/attach failure
falls back silently to regeneration — bit-identical by the determinism
anchor above, shared memory only changes who computes the traces.

Sweep-shared traces (:class:`SharedTraces`): the grid sweep engine
(:mod:`repro.simulation.sweep`) generates a group's trace set once and
hands it to every scenario of the group via ``run(..., shared=...)`` —
serial runs read the in-process trace list (ensemble row subsets via
:meth:`TraceEnsemble.take`), parallel runs reuse the group's single shm
publication.  Both channels carry the exact arrays the scenario would
have generated itself, so sharing never changes results.

Cost-model scheduling: work units are not all equal — a trace batch
replaying a DP policy costs orders of magnitude more than a vectorized
static-schedule replay.  The runner estimates each unit's cost (policy
family x trace count x DP grid size, discounted by the persistent disk
tier's lifetime hit rate), splits trace batches finer when units are
expensive (dynamic chunking), and dispatches units longest-first (LPT)
so a straggler never lands last on an otherwise idle pool.  Results are
stitched by trace index, so dispatch order is invisible to results; the
estimates and per-unit wall-clock land in ``ScenarioResult.scheduler``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.cluster.models import Platform
from repro.core.cache import (
    cache_stats,
    configure_cache,
    configure_replan_memo,
    get_cache,
    get_replan_memo,
    replan_memo_stats,
)
from repro.core.diskcache import (
    configure_disk_cache,
    disk_cache_stats,
    get_disk_cache,
)
from repro.simulation import shm as _shm
from repro.policies.base import PeriodicPolicy
from repro.simulation.batch import (
    TraceEnsemble,
    simulate_lower_bound_batch,
    simulate_policy_ensemble,
)
from repro.simulation.engine import simulate_lower_bound
from repro.traces.generation import generate_platform_traces

__all__ = [
    "ExecutionConfig",
    "ParallelRunner",
    "SharedTraces",
    "get_default_execution",
    "set_default_execution",
    "resolve_jobs",
]


@dataclass
class ExecutionConfig:
    """Process-wide defaults for scenario execution.

    ``jobs``: worker processes (1 = in-process serial; 0 or negative =
    one per available CPU).  ``use_cache``: consult the shared DP table
    cache.  ``batch_size``: trace indices per work unit (None = split
    evenly, ~4 units per worker for load balancing).  ``use_batch``:
    replay static-schedule policies with the vectorized batch engine
    (:mod:`repro.simulation.batch`); results are bit-identical either
    way, so False is only an escape hatch / A-B check.  ``use_memo``:
    consult the DPNextFailure replan memo (:mod:`repro.core.cache`).
    ``use_shm``: publish traces/ensembles to workers via shared memory
    (:mod:`repro.simulation.shm`); falls back to per-task regeneration
    on any failure.  ``use_disk_cache``: consult the persistent disk
    solve tier (:mod:`repro.core.diskcache`) under the in-memory
    caches.  All five toggles leave results bit-identical.
    """

    jobs: int = 1
    use_cache: bool = True
    batch_size: int | None = None
    use_batch: bool = True
    use_memo: bool = True
    use_shm: bool = True
    use_disk_cache: bool = True


_DEFAULT = ExecutionConfig()


def get_default_execution() -> ExecutionConfig:
    """A copy of the current default execution configuration."""
    return replace(_DEFAULT)


def set_default_execution(
    jobs: int | None = None,
    use_cache: bool | None = None,
    batch_size: int | None = None,
    use_batch: bool | None = None,
    use_memo: bool | None = None,
    use_shm: bool | None = None,
    use_disk_cache: bool | None = None,
) -> None:
    """Set process-wide execution defaults (CLI flags, benchmark env)."""
    if jobs is not None:
        _DEFAULT.jobs = int(jobs)
    if use_cache is not None:
        _DEFAULT.use_cache = bool(use_cache)
    if batch_size is not None:
        _DEFAULT.batch_size = int(batch_size)
    if use_batch is not None:
        _DEFAULT.use_batch = bool(use_batch)
    if use_memo is not None:
        _DEFAULT.use_memo = bool(use_memo)
    if use_shm is not None:
        _DEFAULT.use_shm = bool(use_shm)
    if use_disk_cache is not None:
        _DEFAULT.use_disk_cache = bool(use_disk_cache)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: None -> default config, 0 or
    negative -> one worker per available CPU."""
    if jobs is None:
        jobs = _DEFAULT.jobs
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclass
class SharedTraces:
    """A scenario trace set owned by someone else (the sweep engine).

    ``traces`` / ``ensemble`` are in-process references used on the
    serial path (``jobs <= 1``); ``layout`` is the shared-memory recipe
    parallel workers attach to.  Either channel delivers exactly the
    arrays the scenario would have generated from the determinism
    anchor, so handing a runner a ``SharedTraces`` can never change
    results — only who pays for generation and compilation.  The owner
    keeps the publication alive for the runner's whole ``run()`` and
    unlinks it afterwards.
    """

    traces: list | None = None
    ensemble: TraceEnsemble | None = None
    layout: object | None = None


# ----------------------------------------------------------------------
# per-unit cost model (estimates only: scheduling, never results)
# ----------------------------------------------------------------------

#: Relative cost of replaying one trace under a DP policy with the
#: reference grid (n_grid=96) versus one vectorized static-schedule
#: replay.  Order-of-magnitude calibration from BENCH_dp: adaptive
#: replays are dominated by replan solves, static replays are a few
#: array passes.
_DP_TRACE_WEIGHT = 48.0


def _policy_weight(policy, disk_discount: float) -> float:
    """Estimated per-trace replay cost of ``policy`` (1.0 = one
    vectorized static-schedule replay).  DP policies scale with their
    grid resolution and are discounted by the persistent solve tier's
    observed hit rate — a warm tier turns most solves into loads."""
    n_grid = getattr(policy, "n_grid", None)
    if n_grid is None:
        return 1.0
    return max(1.0, _DP_TRACE_WEIGHT * (float(n_grid) / 96.0) * disk_discount)


def _disk_discount(use_disk_cache: bool) -> float:
    """Fraction of a DP policy's solve cost expected to be actually
    paid, calibrated from the disk tier's lifetime hit counters: a tier
    that historically answers 80% of lookups makes adaptive units ~5x
    cheaper than their cold estimate.  Returns 1.0 (no discount) when
    the tier is off or unreadable; floor 0.1 keeps even a perfectly
    warm tier's units ordered above static replays."""
    if not use_disk_cache:
        return 1.0
    try:
        rate = float(get_disk_cache().lifetime()["hit_rate"])
    except Exception:
        return 1.0
    return max(0.1, 1.0 - 0.9 * min(max(rate, 0.0), 1.0))


# ----------------------------------------------------------------------
# work units (module level: picklable by ProcessPoolExecutor)
# ----------------------------------------------------------------------


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


def _task_traces(
    platform: Platform,
    horizon: float,
    seed: int,
    indices: list[int],
    t0: float,
    use_batch: bool,
    layout,
    local: SharedTraces | None = None,
):
    """Materialize a work unit's traces + compiled ensemble.

    Preferred sources, in order: an in-process :class:`SharedTraces`
    (``local``, serial sweep groups — never crosses a process
    boundary), then the scenario's shared-memory publication
    (``layout``) — attach, copy the unit's rows, detach.  Fallback (no
    layout, or any attach failure): regenerate from the determinism
    anchor and compile per batch, exactly the pre-shm path.  All
    sources yield bit-identical traces, and a row subset of the global
    ensemble is replay-equivalent to a per-batch compilation (padding
    columns are inert), so the choice never affects results.
    """
    if local is not None and local.traces is not None:
        traces = [local.traces[i] for i in indices]
        if use_batch and traces:
            ensemble = (
                local.ensemble.take(indices)
                if local.ensemble is not None
                else TraceEnsemble(traces, platform.recovery, t0)
            )
        else:
            ensemble = None
        return traces, ensemble
    if layout is not None:
        try:
            with _shm.attach_scenario(layout) as scenario:
                traces = [scenario.job_traces(i) for i in indices]
                ensemble = (
                    scenario.ensemble_rows(indices)
                    if use_batch and traces
                    else None
                )
            return traces, ensemble
        except Exception:
            # segment gone / platform quirk: drop the layout and
            # regenerate below (bit-identical by the determinism anchor)
            layout = None
    traces = [_job_trace(platform, horizon, seed, index) for index in indices]
    ensemble = (
        TraceEnsemble(traces, platform.recovery, t0)
        if use_batch and traces
        else None
    )
    return traces, ensemble


@dataclass
class _TraceTask:
    """Phase 1/3 unit: run ``policies`` over the traces in ``indices``."""

    platform: Platform
    work_time: float
    horizon: float
    t0: float
    seed: int
    indices: list[int]
    policies: list
    include_lower_bound: bool
    max_makespan: float
    use_cache: bool
    use_batch: bool = True
    use_memo: bool = True
    use_disk_cache: bool = True
    collect_memo_delta: bool = False
    layout: object | None = None
    # in-process trace source (sweep groups, jobs<=1); never pickled —
    # parallel dispatch always leaves it None and uses ``layout``
    local: SharedTraces | None = None


@dataclass
class _TraceTaskResult:
    indices: list[int]
    # per policy name: list of (makespan, SimulationResult | None) in
    # index order; None marks an infeasible (policy, trace) pair
    per_policy: dict[str, list[tuple[float, object]]]
    infeasible: dict[str, list[int]] = field(default_factory=dict)
    lower_bound: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    # replan-memo entries this unit added (shipped back for the parent
    # to merge; empty unless collect_memo_delta was set)
    memo_delta: list = field(default_factory=list)
    # wall-clock the unit took in its worker (scheduler diagnostics)
    unit_seconds: float = 0.0


def _run_trace_task(task: _TraceTask) -> _TraceTaskResult:
    unit_start = time.perf_counter()  # reprolint: clock-ok=scheduler diagnostics
    configure_cache(enabled=task.use_cache)
    configure_replan_memo(enabled=task.use_memo)
    configure_disk_cache(enabled=task.use_disk_cache)
    before = cache_stats()
    memo_before = replan_memo_stats()
    disk_before = disk_cache_stats()
    memo_keys = _shm.memo_snapshot() if task.collect_memo_delta else None
    platform = task.platform
    per_policy: dict[str, list[tuple[float, object]]] = {}
    infeasible: dict[str, list[int]] = {}
    lower_bound: list[float] = []
    # One compiled ensemble serves every static-schedule policy of the
    # batch (and the LowerBound); dynamic policies fall back to the
    # scalar engine inside simulate_policy_ensemble.
    traces, ensemble = _task_traces(
        platform,
        task.horizon,
        task.seed,
        task.indices,
        task.t0,
        task.use_batch,
        task.layout,
        task.local,
    )
    for policy in task.policies:
        results = simulate_policy_ensemble(
            policy,
            task.work_time,
            traces,
            platform.checkpoint,
            platform.recovery,
            platform.dist,
            t0=task.t0,
            platform_mtbf=platform.platform_mtbf,
            max_makespan=task.max_makespan,
            ensemble=ensemble,
            use_batch=task.use_batch,
        )
        pairs: list[tuple[float, object]] = []
        for index, res in zip(task.indices, results):
            if res is None:
                pairs.append((math.nan, None))
                infeasible.setdefault(policy.name, []).append(index)
            else:
                pairs.append((res.makespan, res))
        per_policy[policy.name] = pairs
    if task.include_lower_bound:
        if ensemble is not None:
            lower_bound = [
                res.makespan
                for res in simulate_lower_bound_batch(
                    task.work_time, ensemble, platform.checkpoint
                )
            ]
        else:
            lower_bound = [
                simulate_lower_bound(
                    task.work_time,
                    tr,
                    platform.checkpoint,
                    platform.recovery,
                    t0=task.t0,
                ).makespan
                for tr in traces
            ]
    after = cache_stats()
    memo_after = replan_memo_stats()
    disk_after = disk_cache_stats()
    # persist hit counters a hit-only worker would otherwise never flush
    get_disk_cache().flush_counters()
    return _TraceTaskResult(
        indices=list(task.indices),
        per_policy=per_policy,
        infeasible=infeasible,
        lower_bound=lower_bound,
        cache_hits=after.hits - before.hits,
        cache_misses=after.misses - before.misses,
        memo_hits=memo_after.hits - memo_before.hits,
        memo_misses=memo_after.misses - memo_before.misses,
        disk_hits=disk_after.hits - disk_before.hits,
        disk_misses=disk_after.misses - disk_before.misses,
        disk_evictions=disk_after.evictions - disk_before.evictions,
        memo_delta=(
            _shm.export_memo_delta(memo_keys) if memo_keys is not None else []
        ),
        unit_seconds=time.perf_counter() - unit_start,  # reprolint: clock-ok=scheduler diagnostics
    )


@dataclass
class _PeriodTask:
    """Phase 2 unit: mean makespan of each candidate period over the
    search-subset traces."""

    platform: Platform
    work_time: float
    horizon: float
    t0: float
    seed: int
    subset_indices: list[int]
    periods: list[float]
    max_makespan: float
    use_cache: bool
    use_batch: bool = True
    use_memo: bool = True
    use_disk_cache: bool = True
    collect_memo_delta: bool = False
    layout: object | None = None
    # in-process trace source (sweep groups, jobs<=1); never pickled
    local: SharedTraces | None = None


@dataclass
class _PeriodTaskResult:
    means: list[float]
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    memo_delta: list = field(default_factory=list)
    unit_seconds: float = 0.0


def _run_period_task(task: _PeriodTask) -> _PeriodTaskResult:
    unit_start = time.perf_counter()  # reprolint: clock-ok=scheduler diagnostics
    configure_cache(enabled=task.use_cache)
    configure_replan_memo(enabled=task.use_memo)
    configure_disk_cache(enabled=task.use_disk_cache)
    before = cache_stats()
    memo_before = replan_memo_stats()
    disk_before = disk_cache_stats()
    memo_keys = _shm.memo_snapshot() if task.collect_memo_delta else None
    platform = task.platform
    # The compiled ensemble is period-independent: one compilation is
    # amortized over the entire candidate sweep of this work unit.
    traces, ensemble = _task_traces(
        platform,
        task.horizon,
        task.seed,
        task.subset_indices,
        task.t0,
        task.use_batch,
        task.layout,
        task.local,
    )
    means = []
    for period in task.periods:
        policy = PeriodicPolicy(period, name="PeriodCandidate")
        results = simulate_policy_ensemble(
            policy,
            task.work_time,
            traces,
            platform.checkpoint,
            platform.recovery,
            platform.dist,
            t0=task.t0,
            platform_mtbf=platform.platform_mtbf,
            max_makespan=task.max_makespan,
            ensemble=ensemble,
            use_batch=task.use_batch,
        )
        # a PeriodicPolicy is never infeasible: every entry is a result
        spans = [res.makespan for res in results if res is not None]
        means.append(float(np.mean(spans)))
    after = cache_stats()
    memo_after = replan_memo_stats()
    disk_after = disk_cache_stats()
    # persist hit counters a hit-only worker would otherwise never flush
    get_disk_cache().flush_counters()
    return _PeriodTaskResult(
        means=means,
        cache_hits=after.hits - before.hits,
        cache_misses=after.misses - before.misses,
        memo_hits=memo_after.hits - memo_before.hits,
        memo_misses=memo_after.misses - memo_before.misses,
        disk_hits=disk_after.hits - disk_before.hits,
        disk_misses=disk_after.misses - disk_before.misses,
        disk_evictions=disk_after.evictions - disk_before.evictions,
        memo_delta=(
            _shm.export_memo_delta(memo_keys) if memo_keys is not None else []
        ),
        unit_seconds=time.perf_counter() - unit_start,  # reprolint: clock-ok=scheduler diagnostics
    )


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
    batch_size:
        Trace indices per work unit; None splits the trace set into
        about four units per worker.
    use_cache:
        Consult the shared DP table cache (None reads the default).
    use_batch:
        Replay static-schedule policies with the vectorized batch
        engine; None reads the default.  Results are bit-identical
        either way (``--no-batch`` forces the scalar engine).
    use_memo:
        Consult the DPNextFailure replan memo; None reads the default
        (``--no-memo`` disables).  Bit-identical either way.
    use_shm:
        Publish traces/ensembles to workers through shared memory; None
        reads the default.  Only engaged with ``jobs > 1``; falls back
        to per-task regeneration on any failure.  Bit-identical either
        way (``--no-shm`` forces regeneration).
    use_disk_cache:
        Consult the persistent disk solve tier below the in-memory
        caches; None reads the default (``--no-disk-cache`` disables).
        Bit-identical either way — the disk tier only changes which
        process pays for a solve.
    progress:
        Optional callback ``progress(done, total)`` invoked after every
        completed work unit (trace batch, period batch, winner batch).
        ``total`` grows as later phases enqueue their units, so treat it
        as the best current estimate, not a constant.  Used by the
        scenario service for its status/stream JSON; never affects
        results.  Exceptions raised by the callback propagate.
    executor:
        Optional externally-owned ``ProcessPoolExecutor`` to dispatch
        on instead of spinning one pool per phase.  The sweep engine
        passes one pool for a whole grid, amortizing worker startup
        over every scenario; the caller owns its shutdown.  Ignored on
        serial runs.
    """

    def __init__(
        self,
        jobs: int | None = None,
        batch_size: int | None = None,
        use_cache: bool | None = None,
        use_batch: bool | None = None,
        use_memo: bool | None = None,
        use_shm: bool | None = None,
        use_disk_cache: bool | None = None,
        progress: Callable[[int, int], None] | None = None,
        executor: ProcessPoolExecutor | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.batch_size = (
            batch_size if batch_size is not None else _DEFAULT.batch_size
        )
        self.use_cache = (
            _DEFAULT.use_cache if use_cache is None else bool(use_cache)
        )
        self.use_batch = (
            _DEFAULT.use_batch if use_batch is None else bool(use_batch)
        )
        self.use_memo = (
            _DEFAULT.use_memo if use_memo is None else bool(use_memo)
        )
        self.use_shm = _DEFAULT.use_shm if use_shm is None else bool(use_shm)
        self.use_disk_cache = (
            _DEFAULT.use_disk_cache
            if use_disk_cache is None
            else bool(use_disk_cache)
        )
        self.progress = progress
        self._executor = executor
        self._units_done = 0
        self._units_total = 0
        # per-unit cost estimates and measured seconds, accumulated
        # across phases for ScenarioResult.scheduler
        self._sched_costs: list[float] = []
        self._sched_seconds: list[float] = []

    # -- internal dispatch ---------------------------------------------

    def _unit_done(self) -> None:
        self._units_done += 1
        if self.progress is not None:
            self.progress(self._units_done, self._units_total)

    def _map(self, fn, tasks: list, costs: list[float] | None = None):
        """Run ``fn`` over ``tasks``, in process or on the pool; results
        come back in task order either way.  Each completed task ticks
        the progress callback.

        ``costs`` (estimated per-unit cost, same length as ``tasks``)
        turns on longest-first dispatch: units are *submitted* in
        descending cost order (LPT — workers pick up the expensive
        stragglers first), while collection stays in task order, so
        callers that rely on order (period means) see no difference.
        """
        self._units_total += len(tasks)
        if costs is not None:
            self._sched_costs.extend(costs)
        if self.jobs <= 1 or len(tasks) <= 1:
            out = []
            for t in tasks:
                out.append(fn(t))
                self._unit_done()
            return out
        order = list(range(len(tasks)))
        if costs is not None:
            order.sort(key=lambda i: (-costs[i], i))
        if self._executor is not None:
            pool, owns = self._executor, False
        else:
            workers = min(self.jobs, len(tasks))
            pool, owns = ProcessPoolExecutor(max_workers=workers), True
        try:
            futures = {i: pool.submit(fn, tasks[i]) for i in order}
            out = []
            for i in range(len(tasks)):
                out.append(futures[i].result())
                self._unit_done()
            return out
        finally:
            if owns:
                pool.shutdown()

    def _trace_batches(
        self, indices: list[int], per_trace_cost: float = 1.0
    ) -> list[list[int]]:
        """Split trace indices into work units.

        An explicit ``batch_size`` wins.  Otherwise the granularity
        adapts to the estimated per-trace cost: cheap vectorized
        replays stay chunky (~4 units per worker, little IPC), while
        expensive adaptive replays split finer — imbalance there costs
        whole DP solves, and the extra dispatch overhead is noise next
        to one unit's runtime.  Batching never affects results (traces
        are stitched back by index).
        """
        if self.batch_size is not None:
            size = max(1, int(self.batch_size))
        else:
            units_per_worker = int(
                min(16, max(4, round(2.0 * math.sqrt(max(per_trace_cost, 1.0)))))
            )
            size = max(
                1, math.ceil(len(indices) / max(1, self.jobs * units_per_worker))
            )
        return _chunk(indices, size)

    def _scheduler_stats(self) -> dict:
        """JSON-ready summary of the run's unit cost estimates and
        measured unit wall-clock (max/mean imbalance)."""
        costs = self._sched_costs
        seconds = [s for s in self._sched_seconds if s > 0.0]
        stats: dict = {
            "units": len(costs),
            "longest_first": self.jobs > 1,
        }
        if costs:
            mean = sum(costs) / len(costs)
            stats["est_cost_max"] = max(costs)
            stats["est_cost_mean"] = mean
            stats["est_imbalance"] = max(costs) / mean if mean > 0 else 1.0
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
        self._sched_costs = []
        self._sched_seconds = []
        prior_enabled = get_cache().enabled
        prior_memo = get_replan_memo().enabled
        prior_disk = get_disk_cache().enabled
        configure_cache(enabled=self.use_cache)
        configure_replan_memo(enabled=self.use_memo)
        configure_disk_cache(enabled=self.use_disk_cache)
        try:
            return self._run(
                policies,
                platform,
                work_time,
                n_traces,
                horizon,
                t0,
                seed,
                include_lower_bound,
                include_period_lb,
                period_lb_factors,
                period_lb_traces,
                max_makespan,
                start,
                shared,
            )
        finally:
            configure_cache(enabled=prior_enabled)
            configure_replan_memo(enabled=prior_memo)
            configure_disk_cache(enabled=prior_disk)

    def _run(
        self,
        policies,
        platform,
        work_time,
        n_traces,
        horizon,
        t0,
        seed,
        include_lower_bound,
        include_period_lb,
        period_lb_factors,
        period_lb_traces,
        max_makespan,
        start,
        shared=None,
    ):
        # Publish the scenario's traces (and compiled ensemble) once so
        # workers attach instead of regenerating per task.  Serial runs
        # skip it: the in-process path touches each trace exactly once.
        # A sweep-shared trace set short-circuits both: the group owner
        # already generated (and, with jobs>1, published) the arrays.
        publication = None
        layout = None
        local = None
        if shared is not None:
            layout = shared.layout
            if self.jobs <= 1:
                local = shared
        elif self.use_shm and self.jobs > 1 and n_traces > 0:
            try:
                all_traces = [
                    _job_trace(platform, horizon, seed, i)
                    for i in range(n_traces)
                ]
                ensemble = (
                    TraceEnsemble(all_traces, platform.recovery, t0)
                    if self.use_batch
                    else None
                )
                publication = _shm.publish_scenario(
                    all_traces,
                    ensemble,
                    n_units=platform.num_nodes,
                    downtime=platform.downtime,
                    horizon=horizon,
                    recovery=platform.recovery,
                    t0=t0,
                )
                layout = publication.layout
            except Exception:
                # no shared memory on this platform / size limits: fall
                # back to per-task regeneration (bit-identical)
                publication = None
                layout = None
        try:
            return self._run_phases(
                policies,
                platform,
                work_time,
                n_traces,
                horizon,
                t0,
                seed,
                include_lower_bound,
                include_period_lb,
                period_lb_factors,
                period_lb_traces,
                max_makespan,
                start,
                layout,
                local,
                shared is not None,
            )
        finally:
            if publication is not None:
                publication.close()

    def _run_phases(
        self,
        policies,
        platform,
        work_time,
        n_traces,
        horizon,
        t0,
        seed,
        include_lower_bound,
        include_period_lb,
        period_lb_factors,
        period_lb_traces,
        max_makespan,
        start,
        layout,
        local=None,
        from_shared=False,
    ):
        # Imported here: runner imports this module's config helpers, so
        # a module-level import would be circular.
        from repro.simulation.runner import LOWER_BOUND, PERIOD_LB, ScenarioResult
        from repro.simulation.runner import _optexp_period

        # Per-trace cost estimate drives chunk granularity and the
        # longest-first dispatch order; the disk-tier discount is read
        # once (it walks the tier directory) and only when an adaptive
        # policy makes it matter.
        discount = (
            _disk_discount(self.use_disk_cache)
            if any(getattr(p, "n_grid", None) is not None for p in policies)
            else 1.0
        )
        per_trace_cost = sum(_policy_weight(p, discount) for p in policies)
        if include_lower_bound:
            per_trace_cost += 1.0

        hits = misses = 0
        memo_hits = memo_misses = 0
        disk_hits = disk_misses = disk_evictions = 0
        # With several workers, each unit ships back the memo entries it
        # added; the parent merges them so later phases fork warm, and
        # the union of delta keys is the deduplicated miss count.
        collect_delta = self.jobs > 1 and self.use_memo
        merged_keys: set = set()

        def _absorb(res) -> None:
            nonlocal hits, misses, memo_hits, memo_misses
            nonlocal disk_hits, disk_misses, disk_evictions
            hits += res.cache_hits
            misses += res.cache_misses
            memo_hits += res.memo_hits
            memo_misses += res.memo_misses
            disk_hits += res.disk_hits
            disk_misses += res.disk_misses
            disk_evictions += res.disk_evictions
            self._sched_seconds.append(res.unit_seconds)
            if res.memo_delta:
                _shm.merge_memo_delta(res.memo_delta)
                merged_keys.update(key for key, _value in res.memo_delta)

        indices = list(range(n_traces))
        tasks = [
            _TraceTask(
                platform=platform,
                work_time=work_time,
                horizon=horizon,
                t0=t0,
                seed=seed,
                indices=batch,
                policies=policies,
                include_lower_bound=include_lower_bound,
                max_makespan=max_makespan,
                use_cache=self.use_cache,
                use_batch=self.use_batch,
                use_memo=self.use_memo,
                use_disk_cache=self.use_disk_cache,
                collect_memo_delta=collect_delta,
                layout=layout,
                local=local,
            )
            for batch in self._trace_batches(indices, per_trace_cost)
        ]
        results = self._map(
            _run_trace_task,
            tasks,
            costs=[len(t.indices) * per_trace_cost for t in tasks],
        )

        makespans: dict[str, np.ndarray] = {
            p.name: np.full(n_traces, np.nan) for p in policies
        }
        details: dict[str, list] = {p.name: [None] * n_traces for p in policies}
        infeasible: dict[str, list[int]] = {}
        lb_spans = np.full(n_traces, np.nan)
        for res in results:
            _absorb(res)
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
            from repro.policies.periodlb import candidate_factors

            factors = (
                period_lb_factors
                if period_lb_factors is not None
                else candidate_factors()
            )
            base = _optexp_period(platform, work_time)
            periods = np.asarray(sorted(base * np.asarray(factors, dtype=float)))
            subset = indices[: (period_lb_traces or n_traces)]
            per_unit = max(
                1, math.ceil(periods.size / max(1, self.jobs * 2))
            )
            period_tasks = [
                _PeriodTask(
                    platform=platform,
                    work_time=work_time,
                    horizon=horizon,
                    t0=t0,
                    seed=seed,
                    subset_indices=subset,
                    periods=batch,
                    max_makespan=max_makespan,
                    use_cache=self.use_cache,
                    use_batch=self.use_batch,
                    use_memo=self.use_memo,
                    use_disk_cache=self.use_disk_cache,
                    collect_memo_delta=collect_delta,
                    layout=layout,
                    local=local,
                )
                for batch in _chunk(list(periods), per_unit)
            ]
            # candidate periods replay vectorized (weight 1 per trace)
            period_costs = [
                len(t.periods) * len(t.subset_indices) for t in period_tasks
            ]
            means: list[float] = []
            for period_res in self._map(
                _run_period_task, period_tasks, costs=period_costs
            ):
                means.extend(period_res.means)
                _absorb(period_res)
            best = int(np.argmin(means))
            best_period = float(periods[best])

            winner_tasks = [
                _TraceTask(
                    platform=platform,
                    work_time=work_time,
                    horizon=horizon,
                    t0=t0,
                    seed=seed,
                    indices=batch,
                    policies=[PeriodicPolicy(best_period, name=PERIOD_LB)],
                    include_lower_bound=False,
                    max_makespan=max_makespan,
                    use_cache=self.use_cache,
                    use_batch=self.use_batch,
                    use_memo=self.use_memo,
                    use_disk_cache=self.use_disk_cache,
                    collect_memo_delta=collect_delta,
                    layout=layout,
                    local=local,
                )
                for batch in self._trace_batches(indices)
            ]
            lb_period_spans = np.full(n_traces, np.nan)
            for res in self._map(
                _run_trace_task,
                winner_tasks,
                costs=[float(len(t.indices)) for t in winner_tasks],
            ):
                _absorb(res)
                for index, (span, _det) in zip(res.indices, res.per_policy[PERIOD_LB]):
                    lb_period_spans[index] = span
            makespans[PERIOD_LB] = lb_period_spans

        # Shared traces count as reused only when a sharing channel was
        # actually wired up: the in-process list (serial) or the group's
        # shm layout (parallel) — jobs>1 without a layout regenerates.
        trace_gen_reused = from_shared and (local is not None or layout is not None)
        ensemble_reused = bool(
            trace_gen_reused
            and self.use_batch
            and (
                (local is not None and local.ensemble is not None)
                or (layout is not None and getattr(layout, "has_ensemble", False))
            )
        )
        return ScenarioResult(
            makespans=makespans,
            details=details,
            work_time=work_time,
            best_period=best_period,
            infeasible=infeasible,
            elapsed=time.perf_counter() - start,  # reprolint: clock-ok=diagnostic elapsed time
            n_jobs=self.jobs,
            cache_hits=hits,
            cache_misses=misses,
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            memo_unique_misses=(
                len(merged_keys) if collect_delta else memo_misses
            ),
            disk_hits=disk_hits,
            disk_misses=disk_misses,
            disk_evictions=disk_evictions,
            trace_gen_reused=trace_gen_reused,
            ensemble_reused=ensemble_reused,
            scheduler=self._scheduler_stats(),
        )
