"""Grid sweep engine: shared-trace planning over many scenarios.

The paper's simulation study (Sections 4-6) is a *grid*: policies x
period candidates x distributions x platforms, all replayed over the
same failure traces.  Executing each grid point as an independent
scenario (PR-1..9 path) regenerates the trace set, recompiles the
:class:`~repro.simulation.batch.TraceEnsemble` and republishes shared
memory once per point — for a 24-point sweep over one platform that is
24x the dominant fixed cost for identical bytes.

This module plans and executes the grid as a whole:

1. **Expand** — :func:`repro.service.expand_grid` turns a base spec +
   axis lists into validated :class:`~repro.service.spec.ScenarioSpec`
   points (deterministic cartesian order).
2. **Plan** (:func:`plan_sweep`) — points are grouped by *trace
   signature*: the exact spec fields trace generation and ensemble
   compilation depend on (distribution, platform size, downtime, seed,
   trace count, horizon, recovery, t0).  Policies, checkpoint cost and
   work only shape the *replay*, so e.g. a checkpoint-cost axis or a
   policy axis collapses into one group.
3. **Execute** (:func:`run_sweep`) — each group's traces are generated
   **once**, its ensemble compiled once, and (with ``jobs > 1``)
   published to shared memory once; every point of the group runs over
   that single :class:`~repro.simulation.parallel.SharedTraces`.  One process pool
   serves the whole sweep, and a one-ahead prefetch thread builds the
   *next* group's trace set while the current group replays, so
   workers never idle on generation between groups.

Bit-identity: trace ``i`` is a pure function of ``(platform, horizon,
seed, i)`` (the determinism anchor), and a row subset of the group
ensemble is replay-equivalent to compiling the subset alone — so a
sweep's per-point results are bit-identical to N independent
``run_scenarios`` calls — the oracle the sweep tests compare against.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.simulation.parallel import (
    SharedTraces,
    _build_trace_set,
    resolve_jobs,
)
from repro.units import MINUTE

__all__ = [
    "SweepGroup",
    "SweepPlan",
    "SweepResult",
    "plan_sweep",
    "run_sweep",
    "trace_signature",
]


def trace_signature(spec) -> tuple:
    """The spec fields a group's shared trace set depends on.

    Two points may share one generated trace set + compiled ensemble
    iff these are equal: trace generation reads (distribution, p,
    downtime, horizon, seed, n_traces) and ensemble compilation adds
    (recovery, t0).  ``checkpoint``, ``work`` and ``policies`` only
    shape the replay — but note ``work`` feeds the *default* horizon
    (``60*W/p + mtbf``), so a work axis only groups when the spec pins
    ``horizon`` explicitly.  ``shape`` is canonicalized away for
    exponential distributions, matching the spec signature.
    """
    shape = None if spec.dist == "exponential" else float(spec.shape)
    return (
        spec.dist,
        float(spec.mtbf),
        shape,
        int(spec.p),
        float(spec.downtime),
        int(spec.n_traces),
        int(spec.seed),
        float(spec.t0),
        float(spec.effective_horizon),
        float(spec.recovery),
    )


@dataclass(frozen=True)
class SweepGroup:
    """One shared-trace group: the point indices (positions in the
    sweep's spec list, submission order) that share one trace set."""

    key: tuple
    indices: tuple[int, ...]


@dataclass
class SweepPlan:
    """The sweep's execution shape: points and their trace groups,
    groups in first-seen order."""

    specs: list
    groups: list[SweepGroup]

    @property
    def n_points(self) -> int:
        return len(self.specs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready plan summary (group sizes, sharing factor)."""
        return {
            "n_points": len(self.specs),
            "n_groups": len(self.groups),
            "group_sizes": [len(g.indices) for g in self.groups],
            "shared_trace_gens_saved": len(self.specs) - len(self.groups),
        }


def plan_sweep(specs: Sequence) -> SweepPlan:
    """Group grid points by :func:`trace_signature`.

    Groups appear in first-seen order and each group's indices stay in
    submission order, so execution order — and with it which point of a
    serial sweep solves a DP and which reads it back from a cache — is a
    deterministic function of the point list alone.
    """
    specs = list(specs)
    by_key: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        by_key.setdefault(trace_signature(spec), []).append(i)
    groups = [
        SweepGroup(key=key, indices=tuple(indices))
        for key, indices in by_key.items()
    ]
    return SweepPlan(specs=specs, groups=groups)


@dataclass
class SweepResult:
    """Everything a sweep produced: per-point results (input order),
    the plan, per-group reuse stats and the run-level counter roll-up."""

    results: list
    plan: SweepPlan
    group_stats: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    elapsed: float = math.nan
    n_jobs: int = 1

    def scheduler_summary(self) -> dict[str, Any]:
        """Aggregate unit counts and measured unit seconds over every
        point (max of maxes, unit-weighted means)."""
        units = 0
        sec_max = 0.0
        sec_sum = 0.0
        sec_units = 0
        for res in self.results:
            sched = getattr(res, "scheduler", None) or {}
            n = int(sched.get("units", 0))
            units += n
            if n and "unit_seconds_mean" in sched:
                sec_units += n
                sec_max = max(sec_max, float(sched["unit_seconds_max"]))
                sec_sum += float(sched["unit_seconds_mean"]) * n
        out: dict[str, Any] = {"units": units}
        if sec_units:
            mean_s = sec_sum / sec_units
            out["unit_seconds_max"] = sec_max
            out["unit_seconds_mean"] = mean_s
            out["seconds_imbalance"] = sec_max / mean_s if mean_s > 0 else 1.0
        return out


@dataclass
class _GroupResources:
    """One group's shared trace set + the shm publication backing it
    (closed by the sweep loop when the group finishes)."""

    shared: SharedTraces
    publication: object | None = None
    build_seconds: float = 0.0
    prefetched: bool = False

    def close(self) -> None:
        if self.publication is not None:
            self.publication.close()
            self.publication = None


def _build_group(spec, jobs: int) -> _GroupResources:
    """Generate one group's traces (from its first spec — every member
    shares the trace signature), compile the ensemble, and publish to
    shared memory when parallel workers will consume it."""
    build_start = time.perf_counter()  # reprolint: clock-ok=sweep build diagnostics
    shared, publication = _build_trace_set(
        spec.build_platform(),
        spec.effective_horizon,
        spec.seed,
        spec.n_traces,
        spec.t0,
        publish=jobs > 1,
    )
    return _GroupResources(
        shared=shared,
        publication=publication,
        build_seconds=time.perf_counter() - build_start,  # reprolint: clock-ok=sweep build diagnostics
    )


def _start_prefetch(build: Callable[[], _GroupResources]):
    """Kick off a one-ahead group build on a background thread; returns
    ``(thread, box)`` where ``box`` receives ``resources`` or
    ``error``.  Trace generation is a pure function of the spec, so
    overlapping it with the current group's replay cannot change what
    gets built — only when."""
    box: dict[str, Any] = {}

    def work() -> None:
        try:
            box["resources"] = build()
        except BaseException as exc:  # consumer re-raises on the main thread
            box["error"] = exc

    thread = threading.Thread(
        target=work, daemon=True, name="repro-sweep-prefetch"
    )
    thread.start()
    return thread, box


def run_sweep(  # reprolint: disable=R6 each point's seed lives in its spec (trace i = f(platform, horizon, spec.seed, i))
    specs: Sequence,
    jobs: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    on_point_start: Callable[[int], None] | None = None,
    on_point_done: Callable[[int, Any], None] | None = None,
    point_progress: Callable[[int, int, int], None] | None = None,
) -> SweepResult:
    """Execute a list of :class:`ScenarioSpec` points as one sweep.

    Points are grouped by trace signature and each group replays over
    one shared trace set / ensemble / shm publication, with one process
    pool serving the whole sweep and the next group's traces prefetched
    in the background.  Per-point results are bit-identical to
    ``spec.run()`` of each point alone.

    Callbacks: ``progress(done_points, total_points)`` after each point;
    ``on_point_start(i)`` / ``on_point_done(i, result)`` around each
    point (service batch bookkeeping); ``point_progress(i, done,
    total)`` relays the runner's per-work-unit ticks.  None of them
    affect results; callback exceptions propagate.
    """
    sweep_start = time.perf_counter()  # reprolint: clock-ok=diagnostic elapsed time
    from repro.simulation.runner import aggregate_counters

    specs = list(specs)
    plan = plan_sweep(specs)
    results: list = [None] * len(specs)
    done = 0

    def _point_progress(index: int):
        if point_progress is None:
            return None
        return lambda d, t: point_progress(index, d, t)

    def _run_point(index: int, shared, executor):
        nonlocal done
        if on_point_start is not None:
            on_point_start(index)
        result = specs[index].run(
            jobs=jobs,
            progress=_point_progress(index),
            shared=shared,
            executor=executor,
        )
        results[index] = result
        done += 1
        if on_point_done is not None:
            on_point_done(index, result)
        if progress is not None:
            progress(done, len(specs))
        return result

    jobs_n = resolve_jobs(jobs)

    group_stats: list[dict] = []
    executor = ProcessPoolExecutor(max_workers=jobs_n) if jobs_n > 1 else None
    pending: tuple | None = None  # (thread, box) of the next group's build
    try:
        for gi, group in enumerate(plan.groups):
            if pending is None:
                resources = _build_group(specs[group.indices[0]], jobs_n)
            else:
                thread, box = pending
                thread.join()
                pending = None
                if "error" in box:
                    raise box["error"]
                resources = box["resources"]
                resources.prefetched = True
            if gi + 1 < len(plan.groups):
                next_spec = specs[plan.groups[gi + 1].indices[0]]
                pending = _start_prefetch(
                    lambda spec=next_spec: _build_group(spec, jobs_n)
                )
            shm_bytes = (
                resources.publication.nbytes
                if resources.publication is not None
                else 0
            )
            try:
                for index in group.indices:
                    _run_point(index, shared=resources.shared, executor=executor)
            finally:
                resources.close()
            first = results[group.indices[0]]
            group_stats.append({
                "n_points": len(group.indices),
                "point_indices": list(group.indices),
                "trace_gen_reused": bool(first.trace_gen_reused),
                "shm": resources.shared.layout is not None,
                "shm_bytes": shm_bytes,
                "build_seconds": resources.build_seconds,
                "prefetched": resources.prefetched,
            })
    finally:
        if pending is not None:
            thread, box = pending
            thread.join(timeout=MINUTE)
            leftover = box.get("resources")
            if leftover is not None:
                leftover.close()
        if executor is not None:
            executor.shutdown()

    return SweepResult(
        results=results,
        plan=plan,
        group_stats=group_stats,
        counters=aggregate_counters(results),
        elapsed=time.perf_counter() - sweep_start,  # reprolint: clock-ok=diagnostic elapsed time
        n_jobs=jobs_n,
    )
