"""Engine benchmark: vectorized batch replay and DPMakespan sweep.

Standalone script (not pytest-benchmark — CI runs it directly):

    python benchmarks/bench_engine.py [--smoke]

Two measurements, each with a built-in bit-identity check:

1. **Ensemble replay** — every static-schedule policy (Young, DalyLow,
   DalyHigh, OptExp, Bouguerra, Liu) plus the omniscient LowerBound over
   a Weibull trace ensemble, scalar engine (one ``simulate_job`` per
   trace) vs the batch engine (one ``TraceEnsemble`` compile shared by
   all policies + one lockstep replay per policy).
2. **DPMakespan build** — the ``y``-at-a-time reference loop vs the
   blocked 2-D ``(y, i)`` vectorized sweep of
   :func:`repro.core.dp_makespan.dp_makespan` (the loop is the test
   oracle ``tests/dpmakespan_oracle.py``).

Results are archived to ``benchmarks/results/engine_batch.txt`` and
machine-readable ``BENCH_engine.json`` at the repo root.  The full run
asserts the >= 5x ensemble-replay speedup documented in
``docs/performance.md``; ``--smoke`` only checks identity (tiny sizes
tell nothing about throughput).
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the reference sweep lives in tests/

from repro.core.dp_makespan import dp_makespan  # noqa: E402
from repro.distributions.weibull import Weibull  # noqa: E402
from repro.policies.base import PolicyInfeasibleError  # noqa: E402
from repro.policies.bouguerra import Bouguerra  # noqa: E402
from repro.policies.classical import (  # noqa: E402
    DalyHigh,
    DalyLow,
    OptExp,
    Young,
)
from repro.policies.liu import Liu  # noqa: E402
from repro.simulation.batch import (  # noqa: E402
    TraceEnsemble,
    simulate_lower_bound_batch,
    simulate_policy_ensemble,
)
from repro.simulation.engine import (  # noqa: E402
    simulate_job,
    simulate_lower_bound,
)
from repro.traces.generation import generate_platform_traces  # noqa: E402
from tests import dpmakespan_oracle  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _util import report, write_bench_json  # noqa: E402

HOUR = 3600.0
DAY = 24 * HOUR

RESULT_FIELDS = (
    "makespan",
    "work_time",
    "n_failures",
    "n_checkpoints",
    "n_attempts",
    "chunk_min",
    "chunk_max",
    "completed",
    "time_lost",
    "time_outage",
    "time_waiting",
)


def _same_result(a, b) -> bool:
    if a is None or b is None:
        return a is b
    for f in RESULT_FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        if (
            isinstance(x, float)
            and isinstance(y, float)
            and math.isnan(x)
            and math.isnan(y)
        ):
            continue
        if x != y:
            return False
    return True


def bench_ensemble_replay(n_traces: int, seed: int = 11) -> dict:
    """Scalar-vs-batch replay of a whole policy family over one
    ensemble; returns timings + the bit-identity verdict."""
    dist = Weibull.from_mtbf(18 * HOUR, 0.7)
    n_units = 8
    work, checkpoint, recovery, downtime = 50 * HOUR, 600.0, 300.0, 60.0
    horizon = 60 * DAY  # reprolint: disable=R2  (60 days, not MINUTE)
    mtbf = dist.mean() / n_units

    traces = [
        generate_platform_traces(
            dist,
            n_units,
            horizon,
            downtime=downtime,
            seed=np.random.SeedSequence([seed, i]),
        ).for_job(n_units)
        for i in range(n_traces)
    ]
    policies = [Young(), DalyLow(), DalyHigh(), OptExp(), Bouguerra(), Liu()]
    # Warm up lazily-imported numerics (scipy inside Bouguerra's setup)
    # so neither side pays the one-time import cost.
    for pol in policies:
        try:
            simulate_job(
                pol,
                work,
                traces[0],
                checkpoint,
                recovery,
                dist,
                platform_mtbf=mtbf,
            )
        except PolicyInfeasibleError:
            pass

    t0 = time.perf_counter()
    ensemble = TraceEnsemble(traces, recovery, 0.0)
    t1 = time.perf_counter()
    batch_results = {}
    for pol in policies:
        batch_results[pol.name] = simulate_policy_ensemble(
            pol,
            work,
            traces,
            checkpoint,
            recovery,
            dist,
            platform_mtbf=mtbf,
            ensemble=ensemble,
        )
    batch_results["LowerBound"] = simulate_lower_bound_batch(
        work, ensemble, checkpoint
    )
    t2 = time.perf_counter()

    scalar_results = {}
    for pol in policies:
        per_trace = []
        for tr in traces:
            try:
                per_trace.append(
                    simulate_job(
                        pol,
                        work,
                        tr,
                        checkpoint,
                        recovery,
                        dist,
                        platform_mtbf=mtbf,
                    )
                )
            except PolicyInfeasibleError:
                per_trace.append(None)
        scalar_results[pol.name] = per_trace
    scalar_results["LowerBound"] = [
        simulate_lower_bound(work, tr, checkpoint, recovery) for tr in traces
    ]
    t3 = time.perf_counter()

    identical = all(
        _same_result(batch_results[name][i], scalar_results[name][i])
        for name in scalar_results
        for i in range(n_traces)
    )
    compile_s, replay_s, scalar_s = t1 - t0, t2 - t1, t3 - t2
    batch_s = t2 - t0
    return {
        "n_traces": n_traces,
        "n_units": n_units,
        "n_policies": len(policies) + 1,
        "distribution": "Weibull(k=0.7, MTBF=18h)",
        "work_h": work / HOUR,
        "checkpoint_s": checkpoint,
        "recovery_s": recovery,
        "compile_s": compile_s,
        "batch_replay_s": replay_s,
        "batch_total_s": batch_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / batch_s,
        "speedup_replay_only": scalar_s / replay_s,
        "identical": identical,
    }


def bench_dp_makespan(n_grid: int) -> dict:
    """Loop-vs-vectorized DPMakespan table build; identical tables."""
    dist = Weibull.from_mtbf(10 * DAY, 0.7)
    work, checkpoint, downtime, recovery = 20 * DAY, 600.0, 60.0, 600.0
    u = max(checkpoint, work / n_grid)

    t0 = time.perf_counter()
    vec = dp_makespan(work, checkpoint, downtime, recovery, dist, u)
    t1 = time.perf_counter()
    loop = dpmakespan_oracle.dp_makespan(
        work, checkpoint, downtime, recovery, dist, u
    )
    t2 = time.perf_counter()

    identical = (
        np.array_equal(vec._v_pre, loop._v_pre)
        and np.array_equal(vec._c_pre, loop._c_pre)
        and np.array_equal(vec._v_post, loop._v_post)
        and np.array_equal(vec._c_post, loop._c_post)
        and vec.expected_makespan == loop.expected_makespan
        and vec.first_chunk == loop.first_chunk
    )
    return {
        "n_grid": n_grid,
        "distribution": "Weibull(k=0.7, MTBF=10d)",
        "work_d": work / DAY,
        "vectorized_s": t1 - t0,
        "loop_s": t2 - t1,
        "speedup": (t2 - t1) / (t1 - t0),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: verify bit-identity, skip the speedup floor",
    )
    parser.add_argument(
        "--traces",
        type=int,
        default=None,
        help="ensemble size (default 240; smoke 40)",
    )
    parser.add_argument(
        "--n-grid",
        type=int,
        default=None,
        help="DPMakespan grid (default 288; smoke 64)",
    )
    args = parser.parse_args(argv)
    n_traces = args.traces or (40 if args.smoke else 240)
    n_grid = args.n_grid or (64 if args.smoke else 288)

    replay = bench_ensemble_replay(n_traces)
    dp = bench_dp_makespan(n_grid)

    lines = [
        f"mode: {'smoke' if args.smoke else 'full'}",
        "",
        "ensemble replay (scalar simulate_job loop vs batch engine)",
        f"  scenario: {replay['distribution']}, p={replay['n_units']}, "
        f"W={replay['work_h']:.0f}h, C={replay['checkpoint_s']:.0f}s, "
        f"{replay['n_traces']} traces x {replay['n_policies']} policies "
        "(incl. LowerBound)",
        f"  scalar          {replay['scalar_s'] * 1000:9.1f} ms",
        f"  batch compile   {replay['compile_s'] * 1000:9.1f} ms (shared)",
        f"  batch replay    {replay['batch_replay_s'] * 1000:9.1f} ms",
        f"  speedup         {replay['speedup']:9.1f} x (incl. compile; "
        f"{replay['speedup_replay_only']:.1f}x replay only)",
        f"  bit-identical   {replay['identical']}",
        "",
        "DPMakespan table build (reference y-loop vs vectorized sweep)",
        f"  scenario: {dp['distribution']}, W={dp['work_d']:.0f}d, "
        f"n_grid={dp['n_grid']}",
        f"  loop            {dp['loop_s'] * 1000:9.1f} ms",
        f"  vectorized      {dp['vectorized_s'] * 1000:9.1f} ms",
        f"  speedup         {dp['speedup']:9.1f} x",
        f"  identical       {dp['identical']}",
    ]
    if args.smoke:
        # Smoke runs are an identity gate (CI); only a full run may
        # replace the archived full-scale artifacts.
        print("\n".join(lines))
    else:
        report("engine_batch", "\n".join(lines))
        payload = {
            "benchmark": "engine",
            "mode": "full",
            "ensemble_replay": replay,
            "dp_makespan": dp,
        }
        out = REPO_ROOT / "BENCH_engine.json"
        write_bench_json(out, payload)
        print(f"wrote {out}")

    if not (replay["identical"] and dp["identical"]):
        print("FAIL: batch/vectorized results are not bit-identical")
        return 1
    if not args.smoke and replay["n_traces"] >= 200 and replay["speedup"] < 5.0:
        print(
            f"FAIL: ensemble replay speedup {replay['speedup']:.1f}x "
            "below the documented 5x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
