"""Persistent solve-cache tier benchmark: cold / disk-warm / shared-memo.

Three arms run the BENCH_dp adaptive-policy scenario (Weibull, DPNext-
Failure) against a private ``.repro-service/`` root, each in its **own
child process** so "warm" means what it means in practice — a fresh
process (empty L1 caches) finding the previous process's solves on
disk:

1. **cold** — first process, empty tier: every solve is paid for and
   persisted (``disk_misses`` = distinct solves, ``disk_hits`` = 0).
2. **disk-warm** — second process, same tier: the run should be mostly
   ``disk_hits`` and is gated at >= 5x faster than cold (full mode).
3. **shared-memo** — third process, fresh tier, ``--jobs 2``, the same
   scenario run **twice**: pass 1's workers ship their replan-memo
   entries back to the parent at unit exit, so pass 2's workers fork
   from a fully warmed memo.  The gate is pass 2's memo hit rate —
   without the delta merge the parent memo stays empty and pass 2
   repays every solve.

Every arm's per-trace makespans must be bit-identical to the cold
arm's — caching moves solves between processes, never changes them.
``--smoke`` (CI) checks only that identity at toy sizes; the full run
asserts the speed gates and archives ``BENCH_solvecache.json``.

Child processes time *only* the ``run_scenarios`` call (not interpreter
startup or imports), so the reported ratio is solve reuse, not process
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from _util import write_bench_json  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

HOUR = 3600.0
DAY = 24 * HOUR


def _child_main(config: dict) -> dict:
    """One scenario run in this process; returns the measurement."""
    import time

    from repro.cluster.models import ConstantOverhead, Platform
    from repro.core.diskcache import configure_disk_cache
    from repro.distributions.weibull import Weibull
    from repro.policies.dp import DPNextFailurePolicy
    from repro.simulation.runner import run_scenarios

    dist = Weibull.from_mtbf(10 * DAY, 0.7)
    platform = Platform(
        p=config["p"],
        dist=dist,
        downtime=60.0,
        overhead=ConstantOverhead(600.0),
    )
    configure_disk_cache(enabled=config.get("use_disk_cache", True))
    policy = DPNextFailurePolicy(n_grid=config["n_grid"])
    pass_seconds = []
    for _ in range(config.get("repeat", 1)):
        t0 = time.perf_counter()
        result = run_scenarios(
            [policy],
            platform,
            config["work"],
            n_traces=config["n_traces"],
            horizon=400 * DAY,  # reprolint: disable=R2  (sim horizon)
            seed=config["seed"],
            include_lower_bound=False,
            include_period_lb=False,
            jobs=config["jobs"],
        )
        pass_seconds.append(time.perf_counter() - t0)
    # counters and makespans below are the LAST pass's (each
    # run_scenarios reports its own deltas) — for repeat=2 that is the
    # pass whose workers forked from the delta-warmed parent memo
    return {
        "seconds": pass_seconds[0],
        "pass_seconds": pass_seconds,
        # JSON floats round-trip exactly in Python 3 (shortest repr),
        # so the parent's bit-identity gate is a true equality check
        "makespans": [float(m) for m in result.makespans["DPNextFailure"]],
        "memo_hits": result.memo_hits,
        "memo_misses": result.memo_misses,
        "memo_unique_misses": result.memo_unique_misses,
        "disk_hits": result.disk_hits,
        "disk_misses": result.disk_misses,
        "disk_evictions": result.disk_evictions,
    }


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


def bench_solvecache(smoke: bool) -> dict:
    """Cold / disk-warm / shared-memo over one adaptive scenario."""
    if smoke:
        config = {"p": 8, "n_traces": 6, "n_grid": 24,
                  "work": 4 * HOUR, "seed": 17, "jobs": 1}
    else:
        config = {"p": 64, "n_traces": 100, "n_grid": 64,
                  "work": 8 * HOUR, "seed": 17, "jobs": 1}
    jobs = max(2, min(4, os.cpu_count() or 1))

    with tempfile.TemporaryDirectory(prefix="bench-solvecache-") as tmp:
        tier_a = pathlib.Path(tmp) / "tier-a"  # cold + disk-warm
        tier_b = pathlib.Path(tmp) / "tier-b"  # shared-memo (unused)
        cold = _run_child(config, tier_a)
        warm = _run_child(config, tier_a)
        # disk tier off so pass 2's hits are purely the memo deltas the
        # pass-1 workers shipped back to the parent
        shared = _run_child(
            {**config, "jobs": jobs, "repeat": 2, "use_disk_cache": False},
            tier_b,
        )

    identical = bool(
        np.array_equal(cold["makespans"], warm["makespans"])
        and np.array_equal(cold["makespans"], shared["makespans"])
    )
    memo_lookups = shared["memo_hits"] + shared["memo_misses"]
    return {
        "distribution": f"Weibull(k=0.7, MTBF=10d) x {config['p']}",
        "n_units": config["p"],
        "n_traces": config["n_traces"],
        "n_grid": config["n_grid"],
        "work_h": config["work"] / HOUR,
        "jobs": jobs,
        "cold_s": cold["seconds"],
        "warm_s": warm["seconds"],
        "warm_speedup": cold["seconds"] / max(warm["seconds"], 1e-12),
        "cold_disk": {k: cold[k] for k in
                      ("disk_hits", "disk_misses", "disk_evictions")},
        "warm_disk": {k: warm[k] for k in
                      ("disk_hits", "disk_misses", "disk_evictions")},
        "shared_pass1_s": shared["pass_seconds"][0],
        "shared_pass2_s": shared["pass_seconds"][1],
        "shared_memo_hits": shared["memo_hits"],
        "shared_memo_misses": shared["memo_misses"],
        "shared_memo_unique_misses": shared["memo_unique_misses"],
        "shared_memo_hit_rate": (
            shared["memo_hits"] / memo_lookups if memo_lookups else 0.0
        ),
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

    res = bench_solvecache(args.smoke)
    lines = [
        f"mode: {'smoke' if args.smoke else 'full'}",
        "",
        "persistent solve-cache tier (DPNextFailure)",
        f"  scenario: {res['distribution']}, W={res['work_h']:.0f}h, "
        f"n_grid={res['n_grid']}, {res['n_traces']} traces",
        f"  cold  (1st process, empty tier)   {res['cold_s']:9.1f} s  "
        f"disk {res['cold_disk']['disk_hits']}h/"
        f"{res['cold_disk']['disk_misses']}m",
        f"  warm  (2nd process, same tier)    {res['warm_s']:9.1f} s  "
        f"disk {res['warm_disk']['disk_hits']}h/"
        f"{res['warm_disk']['disk_misses']}m",
        f"  speedup (warm vs cold)            {res['warm_speedup']:9.1f} x",
        f"  shared ({res['jobs']} workers, no disk)    "
        f"pass 1 {res['shared_pass1_s']:.1f} s, "
        f"pass 2 {res['shared_pass2_s']:.1f} s",
        f"  shared memo (pass 2)              {res['shared_memo_hits']} hits"
        f" / {res['shared_memo_misses']} misses"
        f" ({res['shared_memo_hit_rate']:.0%} hit rate)",
        f"  bit-identical                     {res['identical']}",
    ]
    print("\n".join(lines))

    if not res["identical"]:
        print("FAIL: solve-cache arms are not bit-identical")
        return 1
    if not args.smoke:
        from _util import report

        report("solvecache", "\n".join(lines))
        out = REPO_ROOT / "BENCH_solvecache.json"
        write_bench_json(out, {
            "benchmark": "solvecache",
            "mode": "full",
            "solvecache": res,
        })
        print(f"wrote {out}")
        if res["warm_speedup"] < 5.0:
            print(
                f"FAIL: disk-warm speedup {res['warm_speedup']:.1f}x below "
                "the documented 5x floor"
            )
            return 1
        if res["shared_memo_hit_rate"] < 0.5:
            print(
                "FAIL: shared-memo pass-2 hit rate "
                f"{res['shared_memo_hit_rate']:.0%} below the documented "
                "50% floor (the delta merge is not warming the parent)"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
