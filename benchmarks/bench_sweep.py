"""Grid-sweep engine benchmark: shared-trace planning vs per-scenario runs.

Two arms execute the same 24-point grid (12 checkpoint costs x 2 static
policies over one Weibull platform — every point shares one trace
signature), each in its **own child process** against a private
``.repro-service/`` root so the persistent disk tier cannot leak
between arms:

1. **baseline** — ``[spec.run() for spec in specs]``: every grid
   point runs as an independent scenario, regenerating its trace set
   and recompiling its :class:`TraceEnsemble` — exactly what a loop of
   ``repro run`` calls would execute.
2. **sweep** — ``run_sweep(specs)``: the planner
   collapses the grid into one trace group; traces are generated once
   and the ensemble compiled once for all 24 points.

The gate (full mode) is the sweep arm at >= 3x the baseline's
wall-clock, with every point's comparable result payload byte-identical
across arms — planning moves work, never results.  ``--smoke`` (CI)
checks only that identity at toy sizes; the full run asserts the speed
gate and archives ``BENCH_sweep.json`` with host metadata.

Child processes time *only* the arm's runs (not interpreter startup or
imports), so the reported ratio is trace-sharing, not
process overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from _util import write_bench_json  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

HOUR = 3600.0
DAY = 24 * HOUR


def _configs(smoke: bool) -> tuple[dict, dict]:
    """(base spec, grid axes) for the benchmark grid."""
    if smoke:
        base = {"dist": "weibull", "shape": 0.7, "mtbf": 10 * DAY, "p": 8,
                "work": 4 * HOUR, "recovery": 600.0, "downtime": 60.0,
                "n_traces": 4, "seed": 42}
        grid = {"checkpoint": [300.0, 600.0, 900.0],
                "policies": [["young"], ["dalylow"]]}
    else:
        base = {"dist": "weibull", "shape": 0.7, "mtbf": 10 * DAY, "p": 256,
                "work": 8 * HOUR, "recovery": 600.0, "downtime": 60.0,
                "n_traces": 200, "seed": 42}
        grid = {"checkpoint": [float(300 + 100 * i) for i in range(12)],
                "policies": [["young"], ["dalylow"]]}
    return base, grid


def _child_main(config: dict) -> dict:
    """One sweep arm in this process; returns the measurement."""
    import time

    from repro.service.serialize import (
        comparable_result_payload,
        scenario_result_to_dict,
    )
    from repro.core.diskcache import configure_disk_cache
    from repro.service.spec import expand_grid
    from repro.simulation.sweep import run_sweep

    configure_disk_cache(enabled=False)  # isolate trace-sharing from the disk tier
    specs = expand_grid(config["base"], config["grid"])
    t0 = time.perf_counter()
    if config["planned"]:
        sweep = run_sweep(specs, jobs=config["jobs"])
        results = sweep.results
    else:
        results = [spec.run(jobs=config["jobs"]) for spec in specs]
    seconds = time.perf_counter() - t0
    # canonical JSON of the comparable payload per point: the parent's
    # identity gate is a plain string equality over these
    payloads = [
        json.dumps(
            comparable_result_payload(scenario_result_to_dict(result)),
            sort_keys=True,
        )
        for result in results
    ]
    out = {"seconds": seconds, "payloads": payloads}
    if config["planned"]:
        out.update(
            plan=sweep.plan.to_dict(),
            counters=sweep.counters,
            group_stats=sweep.group_stats,
            scheduler=sweep.scheduler_summary(),
        )
    return out


def _run_child(config: dict, service_dir: pathlib.Path) -> dict:
    """Run one arm in a fresh interpreter against ``service_dir``."""
    env = dict(os.environ)
    env["REPRO_SERVICE_DIR"] = str(service_dir)
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child arm failed (rc={proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def bench_sweep(smoke: bool) -> dict:
    """Baseline (independent points) vs planned sweep over one grid."""
    base, grid = _configs(smoke)
    n_points = 1
    for values in grid.values():
        n_points *= len(values)

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        tier_a = pathlib.Path(tmp) / "tier-a"
        tier_b = pathlib.Path(tmp) / "tier-b"
        baseline = _run_child(
            {"base": base, "grid": grid, "jobs": 1, "planned": False},
            tier_a,
        )
        sweep = _run_child(
            {"base": base, "grid": grid, "jobs": 1, "planned": True},
            tier_b,
        )

    identical = baseline["payloads"] == sweep["payloads"]
    return {
        "distribution": (
            f"Weibull(k={base['shape']}, MTBF={base['mtbf'] / DAY:.0f}d) "
            f"x {base['p']}"
        ),
        "n_points": n_points,
        "n_traces": base["n_traces"],
        "grid_axes": {key: len(values) for key, values in grid.items()},
        "plan": sweep["plan"],
        "baseline_s": baseline["seconds"],
        "sweep_s": sweep["seconds"],
        "sweep_speedup": baseline["seconds"] / max(sweep["seconds"], 1e-12),
        "sweep_counters": sweep["counters"],
        "sweep_group_stats": sweep["group_stats"],
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, identity gate only (CI); no artifacts written",
    )
    parser.add_argument("--child", metavar="JSON", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        json.dump(_child_main(json.loads(args.child)), sys.stdout)
        return 0

    res = bench_sweep(args.smoke)
    plan = res["plan"]
    lines = [
        f"mode: {'smoke' if args.smoke else 'full'}",
        "",
        "grid-sweep engine (shared-trace planning)",
        f"  grid: {res['n_points']} points "
        f"({' x '.join(f'{k}={n}' for k, n in res['grid_axes'].items())}), "
        f"{res['distribution']}, {res['n_traces']} traces",
        f"  plan: {plan['n_groups']} trace group(s), "
        f"{plan['shared_trace_gens_saved']} generation(s) shared",
        f"  baseline (independent points)   {res['baseline_s']:9.2f} s",
        f"  sweep    (shared-trace plan)    {res['sweep_s']:9.2f} s",
        f"  speedup                         {res['sweep_speedup']:9.1f} x",
        f"  bit-identical                   {res['identical']}",
    ]
    print("\n".join(lines))

    if not res["identical"]:
        print("FAIL: sweep results are not bit-identical to the baseline")
        return 1
    if not args.smoke:
        from _util import report

        report("sweep", "\n".join(lines))
        out = REPO_ROOT / "BENCH_sweep.json"
        write_bench_json(out, {
            "benchmark": "sweep",
            "mode": "full",
            "sweep": res,
        })
        print(f"wrote {out}")
        if res["sweep_speedup"] < 3.0:
            print(
                f"FAIL: sweep speedup {res['sweep_speedup']:.1f}x below "
                "the documented 3x floor"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
