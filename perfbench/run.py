"""End-to-end benchmark of the reproduction: Table 4 cold and warm, and a
parallel static-policy sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table4_cold --seed 2011 --seconds 20 --trace 0

Prints one line per metric, a host record, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, measured untraced;
``--trace 1`` reports its per-layer metrics from a separately traced
process (see ``spans.py``) plus the tracing overhead against an
untraced one.  Workloads, their layers and the bounds are explained in
``perfbench/README.md``.

Every benchmark process is fresh and gets a private ``REPRO_SERVICE_DIR``
under ``.perfbench-run/`` in the checkout, removed when the run ends, so
a disk tier left by an earlier run (or by the parent commit, whose
source hash is the same when ``src/`` is unchanged) never turns a cold
run warm.

Other modes::

    python3 perfbench/run.py --selfcheck 10 --seconds 20 [--workload W ...]
        interleaved A/B sets of runs of this code; prints each set's
        median and quartiles per (workload, metric) and the gap between
        the two medians as a share of the metric's bound
    python3 perfbench/run.py --write-golden --seed 2011
        stores the reference outputs of a seed under perfbench/goldens/
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Worker processes per workload; a host with fewer CPUs is refused.
WORKLOAD_JOBS = {"table4_cold": 1, "table4_warm": 1, "sweep_static_par": 2}
DEFAULT_SEED = 2011
#: set-up samples per run (fresh processes); setup_s is their median
SETUP_SAMPLES = 5
#: a run must end within 180 s; leave room for clean-up
RUN_BUDGET_S = 165.0
PR_SET_CHILD_SUBREAPER = 36

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    # core/state.py uses BLAS through `@`/einsum: one thread per process,
    # so two pool workers never oversubscribe two CPUs
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_SERVICE_DIR"] = str(run_dir / "service")
    return env


def run_child(cfg: dict, run_dir: Path, deadline: float) -> dict:
    """Run ``child.py`` with ``cfg`` in a fresh process (its own process
    group, killed whole on timeout) and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError("out of time")
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(cfg)],
        cwd=ROOT,
        env=_child_env(run_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(
            f"{cfg['mode']} process failed ({proc.returncode}):\n{err[-3000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _become_subreaper() -> None:
    """Have orphaned descendants of the children re-parented to this
    process, so :func:`_reap_group` can wait for them.  A child's pool
    workers are joined by the child itself, but multiprocessing's
    resource tracker outlives it for a moment."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError(f"prctl: {os.strerror(ctypes.get_errno())}")


def _reap_group(pgid: int, grace: float = 5.0) -> None:
    """Wait until every process of a child's process group has ended;
    kill what is still running after ``grace`` seconds."""
    end = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        now = time.monotonic()
        if now > end + grace:
            raise BenchError("a benchmark process did not end")
        if not killed and now > end:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
        time.sleep(0.01)


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path, deadline: float) -> dict:
    """All processes of one run; returns the end-to-end numbers, or the
    per-layer numbers when ``trace``."""
    jobs = WORKLOAD_JOBS[workload]
    base = {"workload": workload, "seed": seed, "jobs": jobs,
            "seconds": seconds}
    fill_output = None
    snapshot = None
    setups: list[float] = []
    hashes: set[str] = set()
    if workload == "table4_warm":
        fill_output = str(run_dir / "fill.json")
        fill = run_child(
            dict(base, mode="fill", state_dir=str(run_dir / "fill"),
                 fill_output=fill_output),
            run_dir, deadline)
        snapshot = fill["snapshot"]
        hashes.add(fill["source_hash"])
    common = dict(base, snapshot=snapshot, fill_output=fill_output)
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            doc = run_child(
                dict(common, mode="setup", state_dir=str(run_dir / f"setup{i}")),
                run_dir, deadline)
            setups.append(doc["setup_s"])
            shutil.rmtree(run_dir / f"setup{i}", ignore_errors=True)

    def timed(name: str, traced: bool) -> dict:
        remaining = deadline - time.monotonic()
        # a traced run times two processes: give each half the budget
        budget = (remaining / 2 if trace and not traced else remaining) - 25.0
        doc = run_child(
            dict(common, mode="run", state_dir=str(run_dir / name),
                 trace=traced, trace_dir=str(run_dir / f"{name}-spans"),
                 budget=max(budget, 1.0)),
            run_dir, deadline)
        shutil.rmtree(run_dir / name, ignore_errors=True)
        hashes.add(doc["source_hash"])
        return doc

    plain = timed("plain", False)
    setups.append(plain["setup_s"])
    attempted = plain["attempted"]
    failed = plain["failed"]
    result = {
        "golden": plain["golden"],
        "passes": len(plain["walls"]),
        "numpy": plain["numpy"],
    }
    wall = _median(plain["walls"])
    if trace:
        traced = timed("traced", True)
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["digest"] != plain["digest"]:
            # traced and untraced outputs must be identical
            failed += traced["attempted"]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = _median(traced["walls"]) / wall - 1.0
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "wall_s": wall,
            "cpu_s": _median(plain["cpus"]),
            "setup_s": _median(setups),
            "peak_rss_mb": plain["peak_rss_mb"],
            "replays_per_s": _median(
                [plain["replays"] / w for w in plain["walls"]]
            ),
        }
    if len(hashes) != 1:
        raise BenchError(f"processes ran different sources: {sorted(hashes)}")
    result.update(attempted=attempted, failed=min(failed, attempted),
                  source_hash=hashes.pop())
    return result


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args) -> int:
    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if WORKLOAD_JOBS[args.workload] > _nproc():
        raise BenchError(
            f"{args.workload} needs {WORKLOAD_JOBS[args.workload]} CPUs, "
            f"this host has {_nproc()}"
        )
    start = time.monotonic()
    load_before = os.getloadavg()
    run_dir = ROOT / ".perfbench-run" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, float(args.seconds),
                      bool(args.trace), run_dir, start + RUN_BUDGET_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    error_rate = res["failed"] / res["attempted"]
    print(f"{args.workload} error_rate = {error_rate:.6g} "
          f"({res['failed']} of {res['attempted']} replays)")
    host = {
        "cpu_count": os.cpu_count(),
        "nproc": _nproc(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "git_commit": _git_commit(),
        "source_hash": res["source_hash"],
        "golden": res["golden"],
        "passes": res["passes"],
        "env": PINNED_ENV,
    }
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def write_golden(args) -> int:
    run_dir = ROOT / ".perfbench-run" / f"golden-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        for workload in ("table4_cold", "sweep_static_par"):
            doc = run_child(
                {"workload": workload, "seed": args.seed, "mode": "golden",
                 "jobs": WORKLOAD_JOBS[workload],
                 "state_dir": str(run_dir / workload)},
                run_dir, time.monotonic() + 600.0)
            print(json.dumps(doc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def selfcheck(args) -> int:
    """Two interleaved sets (A, B, B, A, ...) of runs of this code, each
    run a fresh ``run.py`` process with its own service dir."""
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload_list or list(WORKLOAD_JOBS)
    values: dict = {}
    for i in range(args.selfcheck):
        for workload in workloads:
            sides = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in sides:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(args.seed + i),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=200,
                )
                if proc.returncode != 0:
                    raise BenchError(f"run failed:\n{proc.stderr[-3000:]}")
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                if not doc["correct"]:
                    raise BenchError(f"incorrect run: {doc}")
                for name, metric in doc["metrics"].items():
                    values.setdefault((workload, name, side), []).append(
                        metric["value"]
                    )
                print(f"pair {i} {workload} {side}: " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in doc["metrics"].items()
                ), file=sys.stderr, flush=True)
    report = []
    for workload in workloads:
        for name, bound in bounds.items():
            a = _quartiles(values[(workload, name, "A")])
            b = _quartiles(values[(workload, name, "B")])
            row = {
                "workload": workload,
                "metric": name,
                "bound": bound,
                "A": {"q1": a[0], "median": a[1], "q3": a[2]},
                "B": {"q1": b[0], "median": b[1], "q3": b[2]},
                "spread_A": (a[2] - a[0]) / a[1],
                "spread_B": (b[2] - b[0]) / b[1],
                "gap": abs(b[1] - a[1]) / a[1],
            }
            row["gap_of_bound"] = row["gap"] / bound
            row["spread_of_bound"] = max(row["spread_A"], row["spread_B"]) / bound
            report.append(row)
            print(
                f"{workload:17s} {name:14s} "
                f"A {a[1]:10.4g} [{a[0]:.4g}, {a[2]:.4g}]  "
                f"B {b[1]:10.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                f"spread {row['spread_A']:.3f}/{row['spread_B']:.3f}  "
                f"gap {row['gap']:.3f} = {row['gap_of_bound']:.2f} of bound {bound}"
            )
    print(json.dumps({"selfcheck": report}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_JOBS),
                        action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", type=int, metavar="PAIRS", default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        _become_subreaper()
        if args.write_golden:
            return write_golden(args)
        if args.selfcheck:
            return selfcheck(args)
        if not args.workload_list or len(args.workload_list) != 1:
            parser.error("give exactly one --workload")
        args.workload = args.workload_list[0]
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
