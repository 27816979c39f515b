"""One benchmark process: set up a workload, time its passes, check them.

Started by ``run.py`` with one JSON argument (see :func:`main`); prints
one JSON object as its last line of stdout.  Every process is fresh, so
each timed region sees exactly the imports, caches and disk tier the
workload defines:

- ``table4_cold``: each pass runs ``run_table4(SMALL)`` serially against
  an empty private disk tier with the in-process DP cache and replan
  memo cleared.  After the last pass the L1 caches are cleared once more
  and an untimed pass replays from the tier the cold passes filled, so
  cold and warm results are compared on every seed.
- ``table4_warm``: each pass first restores the tier snapshot (entries
  and ``counters.json``) that a cold run in another process filled,
  clears the L1 caches, and times ``run_table4(SMALL)``, which then
  loads all of its replans from disk.
- ``sweep_static_par``: each pass times ``run_sweep`` with two workers
  over Table 4's platform, a grid of trace seeds x checkpoint costs with
  static policies, then the degradation-from-best of every grid point.
  After the passes the first trace group runs again serially, untimed,
  and must match.

Modes: ``setup`` only sets up and reports the time it took, ``fill``
runs one untimed cold Table 4 pass and leaves its tier as the warm
snapshot, ``run`` times passes until ``seconds`` of timed work have
accumulated, and ``golden`` writes the reference outputs of a seed.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro.analysis.degradation as degradation  # noqa: E402
import repro.experiments.scaling as scaling  # noqa: E402
import repro.simulation.sweep as sweep_engine  # noqa: E402
from repro.core.cache import clear_cache, clear_replan_memo  # noqa: E402
from repro.core.diskcache import (  # noqa: E402
    configure_disk_cache,
    get_disk_cache,
    reset_disk_cache_stats,
)
from repro.experiments.config import SMALL  # noqa: E402
from repro.service.spec import expand_grid  # noqa: E402
from repro.service.store import store_version  # noqa: E402
from repro.simulation.parallel import set_default_execution  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"

#: Static policies of the sweep (no DP: the sweep never touches the
#: replan memo or the disk tier).
SWEEP_POLICIES = ["young", "dalylow", "dalyhigh", "optexp", "bouguerra"]
#: trace signatures (seeds) x checkpoint costs: one trace group per seed,
#: shared by that seed's points
SWEEP_SEEDS = 4
SWEEP_CHECKPOINTS = [300.0, 600.0, 900.0]
SWEEP_TRACES = 100


def golden_path(workload: str, seed: int) -> Path:
    family = "table4" if workload.startswith("table4") else workload
    return GOLDEN_DIR / f"{family}-{seed}.json"


# ----------------------------------------------------------------------
# outputs: per-(policy, trace) makespans plus the derived tables
# ----------------------------------------------------------------------


def _hex(value: float) -> str:
    return "nan" if value != value else float(value).hex()


def _stats_doc(stats) -> dict:
    return {
        name: [_hex(s.avg), _hex(s.std), int(s.n_valid)]
        for name, s in sorted(stats.items())
    }


def table4_output(table, raw) -> dict:
    return {
        "makespans": {
            name: [_hex(v) for v in spans] for name, spans in raw.makespans.items()
        },
        "table": {
            "stats": _stats_doc(table.stats),
            "dp_failures_avg": _hex(table.dp_failures_avg),
            "dp_failures_max": int(table.dp_failures_max),
        },
    }


def sweep_output(sweep, degradations) -> dict:
    makespans = {}
    for point, result in enumerate(sweep.results):
        for name, spans in result.makespans.items():
            makespans[f"{point}/{name}"] = [_hex(v) for v in spans]
    return {
        "makespans": makespans,
        "table": [_stats_doc(stats) for stats in degradations],
    }


def digest(output: dict) -> str:
    return hashlib.sha256(
        json.dumps(output, sort_keys=True).encode()
    ).hexdigest()


def replays(output: dict) -> int:
    return sum(len(spans) for spans in output["makespans"].values())


def mismatches(output: dict, reference: dict) -> int:
    """(policy, trace) replays whose makespan differs from the reference
    (NaN equals NaN: infeasible-by-design entries are correct), plus
    every replay of the pass when its derived table differs."""
    bad = 0
    for key, spans in output["makespans"].items():
        ref = reference["makespans"].get(key, [])
        bad += sum(
            1 for i, value in enumerate(spans) if i >= len(ref) or ref[i] != value
        )
    table, ref_table = output["table"], reference["table"]
    if isinstance(table, list):
        # a sweep output may cover only the first points of the grid
        ref_table = ref_table[: len(table)]
    if table != ref_table:
        bad = replays(output)
    return bad


def invariant_violations(output: dict) -> int:
    """Replays that break properties every correct result has: a finite
    makespan (only Liu may be infeasible) and the omniscient LowerBound
    never above any other policy on the same trace."""
    bad = 0
    lower = {}
    for key, spans in output["makespans"].items():
        point, _, name = key.rpartition("/")
        if name == "LowerBound":
            lower[point] = [float.fromhex(v) for v in spans]
    for key, spans in output["makespans"].items():
        point, _, name = key.rpartition("/")
        bound = lower.get(point)
        for i, value in enumerate(spans):
            if value == "nan":
                bad += name != "Liu"
            elif bound is not None and float.fromhex(value) < bound[i]:
                bad += 1
    return bad


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Table4:
    """``run_table4(SMALL)`` with one job, against a private disk tier."""

    def __init__(self, cfg: dict):
        self.seed = int(cfg["seed"])
        self.state_dir = Path(cfg["state_dir"])
        self.snapshot = Path(cfg["snapshot"]) if cfg.get("snapshot") else None
        self.jobs = int(cfg["jobs"])
        self.passes = 0
        set_default_execution(jobs=self.jobs)
        self._raw = []
        # capture the per-trace ScenarioResult that run_table4 reduces
        # to its table (the table alone cannot locate a wrong replay)
        evaluate = scaling.evaluate_scenario

        def capture(*args, **kwargs):
            outcome = evaluate(*args, **kwargs)
            self._raw.append(outcome.raw)
            return outcome

        scaling.evaluate_scenario = capture

    def prepare(self) -> None:
        """Fresh private tier for the next pass: empty (cold) or the
        restored snapshot (warm); empty L1 caches either way."""
        self.passes += 1
        tier = self.state_dir / f"pass-{self.passes}"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        if self.snapshot is not None:
            # hard links: a warm pass only reads entries (and bumps their
            # mtime); counters.json is replaced, never written in place
            shutil.copytree(self.snapshot, tier, copy_function=os.link)
        else:
            tier.mkdir()
        os.environ["REPRO_SERVICE_DIR"] = str(tier)
        configure_disk_cache(root=tier)
        reset_disk_cache_stats()
        clear_cache()
        clear_replan_memo()

    def run(self):
        self._raw.clear()
        table = scaling.run_table4(SMALL, seed=self.seed)
        return table, self._raw[-1]

    def output(self, result) -> dict:
        return table4_output(*result)

    def crosscheck(self) -> dict | None:
        """Cold runs: replay from the tier the passes filled, with the L1
        caches cleared (cold must equal warm).  Warm runs are checked
        against the cold run that filled their snapshot instead."""
        if self.snapshot is not None:
            return None
        clear_cache()
        clear_replan_memo()
        return self.output(self.run())

    def counters(self, result) -> dict:
        raw = result[1]
        return {name: getattr(raw, name) for name in _COUNTERS}

    def group_stats(self, result) -> list:
        return []


class Sweep:
    """Static-policy grid sweep with two workers, then the
    degradation-from-best statistic of every point."""

    def __init__(self, cfg: dict):
        seed = int(cfg["seed"])
        # Table 4's platform: scaled Petascale, Weibull k=0.7, C = R = 600 s
        preset = scaling.make_preset("peta", SMALL)
        base = {
            "dist": "weibull",
            "shape": 0.7,
            "mtbf": preset.processor_mtbf,
            "p": preset.ptotal,
            "work": preset.work,
            "recovery": preset.overhead_seconds,
            "downtime": preset.downtime,
            "t0": preset.start_offset,
            "n_traces": SWEEP_TRACES,
            "policies": SWEEP_POLICIES,
            "include_period_lb": True,
        }
        grid = {
            "seed": [seed + i for i in range(SWEEP_SEEDS)],
            "checkpoint": SWEEP_CHECKPOINTS,
        }
        self.specs = expand_grid(base, grid)
        self.jobs = int(cfg["jobs"])
        self.state_dir = Path(cfg["state_dir"])

    def prepare(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        os.environ["REPRO_SERVICE_DIR"] = str(self.state_dir)
        configure_disk_cache(root=self.state_dir)

    def run(self):
        return self.run_points(len(self.specs), self.jobs)

    def run_points(self, n: int, jobs: int):
        # module attributes, so the tracer's wrappers are the ones called
        sweep = sweep_engine.run_sweep(self.specs[:n], jobs=jobs)
        return sweep, [
            degradation.degradation_from_best(r.makespans) for r in sweep.results
        ]

    def output(self, result) -> dict:
        return sweep_output(*result)

    def crosscheck(self) -> dict:
        """The first trace group run serially: parallel (pool, shm) must
        equal in-process execution."""
        return self.output(self.run_points(len(SWEEP_CHECKPOINTS), jobs=1))

    def counters(self, result) -> dict:
        return {name: result[0].counters[name] for name in _COUNTERS}

    def group_stats(self, result) -> list:
        return result[0].group_stats


_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "memo_hits",
    "memo_misses",
    "disk_hits",
    "disk_misses",
)


def make_workload(cfg: dict):
    if cfg["workload"] == "sweep_static_par":
        return Sweep(cfg)
    return Table4(cfg)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def timed_pass(work, tracer=None) -> tuple:
    work.prepare()
    # no set-up writes (deleted or restored tiers) flush during the pass
    os.sync()
    gc.collect()
    cpu0 = _cpu_seconds()
    if tracer is None:
        start = time.perf_counter()
        result = work.run()
        wall = time.perf_counter() - start
    else:
        result, wall = tracer.region(work.run)
    cpu = _cpu_seconds() - cpu0
    return result, wall, cpu


def run_passes(work, cfg: dict, reference: dict | None) -> dict:
    tracer = None
    if cfg.get("trace"):
        import spans

        trace_dir = Path(cfg["trace_dir"])
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = spans.Tracer(trace_dir)
        spans.install(tracer)
    walls, cpus, layers = [], [], []
    attempted = failed = 0
    outputs = []
    deadline = time.perf_counter() + float(cfg["budget"])
    # passes until `seconds` of timed work, rounding the pass count to the
    # nearest: stop when the next pass would overshoot by more than half
    while not walls or (
        sum(walls) + statistics.mean(walls) / 2 < float(cfg["seconds"])
        and time.perf_counter() < deadline
    ):
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            for path in tracer.out_dir.glob("spans-*.jsonl"):
                path.unlink()
        result, wall, cpu = timed_pass(work, tracer)
        walls.append(wall)
        cpus.append(cpu)
        out = work.output(result)
        outputs.append(out)
        attempted += replays(out)
        if tracer:
            layers.append(
                spans.layer_metrics(
                    tracer.spans[first_span:],
                    tracer.worker_spans(),
                    wall,
                    work.counters(result),
                    work.group_stats(result),
                    get_disk_cache().usage(),
                    work.jobs,
                )
            )
    if reference is None:
        reference = outputs[0]
    check = work.crosscheck()
    if check is not None:
        failed += mismatches(check, reference)
    for out in outputs:
        failed += max(mismatches(out, reference), invariant_violations(out))
    return {
        "walls": walls,
        "cpus": cpus,
        "replays": replays(outputs[0]),
        "attempted": attempted,
        "failed": failed,
        "digest": digest(outputs[0]),
        "peak_rss_mb": _peak_rss_mb(),
        "layers": {
            name: statistics.median(per_pass[name] for per_pass in layers)
            for name in (layers[0] if layers else {})
        },
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    work = make_workload(cfg)
    if cfg["mode"] == "golden":
        work.prepare()
        out = work.output(work.run())
        path = golden_path(cfg["workload"], cfg["seed"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out, sort_keys=True) + "\n")
        print(json.dumps({"golden": str(path), "digest": digest(out)}))
        return 0
    work.prepare()
    setup_s = time.perf_counter() - _PROCESS_START
    doc: dict = {"setup_s": setup_s, "source_hash": store_version()}
    if cfg["mode"] == "fill":
        out = work.output(work.run())
        Path(cfg["fill_output"]).write_text(json.dumps(out))
        # the last pass tier becomes the warm snapshot
        doc["snapshot"] = os.environ["REPRO_SERVICE_DIR"]
    elif cfg["mode"] == "run":
        reference = None
        golden = golden_path(cfg["workload"], cfg["seed"])
        if golden.is_file():
            reference = json.loads(golden.read_text())
        if cfg.get("fill_output"):
            fill = json.loads(Path(cfg["fill_output"]).read_text())
            fill_failed = 0 if reference is None else mismatches(fill, reference)
            reference = reference or fill
        else:
            fill_failed = 0
        doc.update(run_passes(work, cfg, reference))
        # a replay that disagrees in several checks still fails once
        doc["failed"] = min(doc["failed"] + fill_failed, doc["attempted"])
        doc["golden"] = golden.is_file()
    doc["numpy"] = np.__version__
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
