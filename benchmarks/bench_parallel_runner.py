"""Parallel runner and DP-cache speedup measurement.

Runs one fixed DP-heavy scenario sweep (the regime where the table
cache and the process pool actually matter) three ways:

1. serial, cold DP cache;
2. serial, warm DP cache (second run of the identical sweep);
3. parallel (``REPRO_BENCH_JOBS`` workers, default = one per CPU).

and reports wall-clock, speedups over the cold serial run, and the
cache hit/miss counters surfaced in ``ScenarioResult``.  Per-trace
makespans are asserted bit-identical across all three runs — the
determinism guarantee the parallel layer is built on.

The measured numbers land in ``benchmarks/results/parallel_runner.txt``
and are quoted in ``docs/performance.md``.  On a single-core container
the parallel row shows pool overhead instead of speedup; on an N-core
machine it approaches the core count for trace-dominated sweeps.
"""

import os
import time

import numpy as np

from repro.cluster.models import ConstantOverhead, Platform
from repro.core.cache import cache_stats, clear_cache
from repro.distributions import Weibull
from repro.experiments import SMOKE
from repro.policies import DPMakespanPolicy, DPNextFailurePolicy, OptExp, Young
from repro.simulation.runner import run_scenarios
from repro.units import DAY, HOUR

from _util import bench_scale, report, run_once


def _sweep(jobs: int, n_traces: int):
    platform = Platform(
        p=8,
        dist=Weibull.from_mtbf(18 * HOUR, 0.7),
        downtime=60.0,
        overhead=ConstantOverhead(600.0),
    )
    return run_scenarios(
        [Young(), OptExp(), DPNextFailurePolicy(n_grid=64), DPMakespanPolicy(n_grid=96)],
        platform,
        work_time=2 * DAY,
        n_traces=n_traces,
        horizon=400 * DAY,
        seed=2011,
        period_lb_factors=[0.5, 0.8, 1.0, 1.25, 2.0],
        jobs=jobs,
    )


def test_parallel_runner_speedup(benchmark):
    scale = bench_scale()
    n_traces = max(8, min(scale.n_traces, 40))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0") or 0) or (os.cpu_count() or 1)

    def timed(label, fn):
        t = time.perf_counter()
        res = fn()
        return label, time.perf_counter() - t, res

    def run_all():
        clear_cache()
        rows = [timed("serial cold cache", lambda: _sweep(1, n_traces))]
        rows.append(timed("serial warm cache", lambda: _sweep(1, n_traces)))
        clear_cache()  # parallel run starts cold, like the serial baseline
        rows.append(timed(f"parallel jobs={jobs}", lambda: _sweep(jobs, n_traces)))
        return rows

    rows = run_once(benchmark, run_all)

    base = rows[0][2]
    for _label, _t, res in rows[1:]:
        for name in base.makespans:
            assert np.array_equal(
                base.makespans[name], res.makespans[name], equal_nan=True
            ), f"{name} differs — determinism broken"

    t_cold = rows[0][1]
    lines = [
        f"scenario sweep: 4 policies + LowerBound + PeriodLB, "
        f"{n_traces} traces, p=8, Weibull k=0.7",
        f"host CPUs: {os.cpu_count()}",
        "",
        f"{'mode':>22} {'seconds':>9} {'speedup':>9} {'hits':>6} {'misses':>7}",
    ]
    for label, t, res in rows:
        lines.append(
            f"{label:>22} {t:9.2f} {t_cold / t:8.2f}x "
            f"{res.cache_hits:6d} {res.cache_misses:7d}"
        )
    lines.append("")
    lines.append(f"global cache after sweep: {cache_stats()}")
    report("parallel_runner", "\n".join(lines))
