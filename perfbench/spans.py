"""Span tracing of the ``repro`` layers, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public functions (and the two pool work-unit functions) of each
layer module in place: the module attribute, every other ``repro``
module that imported the same function object by name, or the class
attribute for methods.  Each call then records one span

    (name, span id, parent span id, start, end, work count)

where the parent is the innermost open span of the same thread, so a
layer's *self time* is its duration minus the time its child spans
cover.

Forked pool workers inherit the wrappers (they are installed before any
pool forks).  A worker notices the pid change on its first span, drops
the state inherited from the parent and appends its spans to
``spans-<pid>.jsonl`` in the trace directory, flushed per span, so the
parent can merge them after the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


def _count_results(args, result) -> int:
    return 0 if result is None else sum(r is not None for r in result)


def _policy_tag(args, kwargs) -> str:
    policy = args[0] if args else kwargs["policy"]
    return f"replay.{policy.name}"


def _shm_bytes(args, result) -> int:
    return int(getattr(result, "nbytes", 0))


#: (module, attribute, span name, count function).  The span name may be
#: a callable of the call's arguments (per-policy replay tags).  The
#: count function maps (args, result) to a work count kept on the span.
TARGETS: list[tuple[str, str, Any, Callable | None]] = [
    ("repro.core.dp_nextfailure", "dp_next_failure_parallel", "dp.solve", None),
    ("repro.core.dp_nextfailure", "dp_next_failure", "dp.solve", None),
    ("repro.core.dp_makespan", "dp_makespan", "dp.solve", None),
    ("repro.core.state", "SurvivalTable.build", "state.build", None),
    ("repro.core.state", "PlatformState.compress", "state.build", None),
    ("repro.core.cache", "cached_replan", "cache.lookup", None),
    ("repro.core.cache", "cached_dp_next_failure_parallel", "cache.lookup", None),
    ("repro.core.cache", "cached_dp_makespan", "cache.lookup", None),
    ("repro.core.diskcache", "DiskSolveCache.load", "disk.load", None),
    ("repro.core.diskcache", "DiskSolveCache.store", "disk.store", None),
    ("repro.simulation.engine", "simulate_job", "engine.adaptive", None),
    ("repro.simulation.batch", "simulate_policy_ensemble", _policy_tag, None),
    ("repro.simulation.batch", "TraceEnsemble.__init__", "batch.compile", None),
    ("repro.simulation.batch", "simulate_job_batch", "batch.static_replay",
     _count_results),
    ("repro.simulation.batch", "simulate_lower_bound_batch", "batch.lower_bound",
     None),
    ("repro.traces.generation", "generate_platform_traces", "traces.gen", None),
    ("repro.simulation.shm", "publish_scenario", "shm.publish", _shm_bytes),
    ("repro.simulation.shm", "attach_scenario", "shm.attach", None),
    ("repro.simulation.shm", "AttachedScenario.job_traces", "shm.attach", None),
    ("repro.simulation.shm", "AttachedScenario.ensemble_rows", "shm.attach", None),
    ("repro.simulation.parallel", "ParallelRunner.run", "parallel.runner", None),
    ("repro.simulation.parallel", "_run_trace_task", "parallel.unit", None),
    ("repro.simulation.parallel", "_run_period_task", "parallel.unit", None),
    ("repro.simulation.sweep", "run_sweep", "sweep.run", None),
    ("repro.analysis.degradation", "degradation_from_best",
     "analysis.degradation", None),
    # the parent blocking on a pool unit's result
    ("concurrent.futures._base", "Future.result", "parallel.wait", None),
]


class Tracer:
    """Per-process span sink: in memory in the tracing process, one
    flushed-per-span file per forked worker."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._fh = None

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # forked worker: the open spans and records are the parent's
            self.pid = pid
            self.spans = []
            self._local = threading.local()
            self._fh = open(self.out_dir / f"spans-{pid}.jsonl", "a")

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: tuple) -> None:
        if self._fh is None:
            self.spans.append(span)
        else:
            self._fh.write(json.dumps(span) + "\n")
            self._fh.flush()

    def call(self, name: str, fn: Callable, args, kwargs, count) -> Any:
        self._check_fork()
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            n = count(args, result) if count is not None else 1
            self._record((name, sid, parent, start, end, n))

    def region(self, fn: Callable, *args, **kwargs) -> tuple[Any, float]:
        """Run ``fn`` as the root span ``region``; returns (result,
        seconds)."""
        result = self.call("region", fn, args, kwargs, None)
        # the region span is the last record of this (tracing) process
        start, end = self.spans[-1][3:5]
        return result, end - start

    def worker_spans(self) -> list[tuple]:
        """Spans the forked workers wrote, as (pid, span) pairs."""
        out = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            with open(path) as fh:
                out.extend((pid, tuple(json.loads(line))) for line in fh)
        return out


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry so its calls record spans."""
    for module_name, attr, name, count in TARGETS:
        module, owner, leaf = _resolve(module_name, attr)
        raw = owner.__dict__[leaf]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        def wrapper(*args, _fn=fn, _name=name, _count=count, **kwargs):
            span = _name(args, kwargs) if callable(_name) else _name
            return tracer.call(span, _fn, args, kwargs, _count)

        functools.update_wrapper(wrapper, fn)
        setattr(owner, leaf, classmethod(wrapper) if is_classmethod else wrapper)
        if owner is module:
            # functions other modules imported by name
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)


def self_times(spans: list[tuple]) -> list[tuple[str, float, float, int]]:
    """(name, self seconds, inclusive seconds, work count) per span of
    one process."""
    covered: dict[int, float] = {}
    for _name, _sid, parent, start, end, _n in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return [
        (name, (end - start) - covered.get(sid, 0.0), end - start, n)
        for name, sid, _parent, start, end, n in spans
    ]


#: Policies whose replays are tagged ``replay.<name>``: Table 4's
#: heuristics, the PeriodLB search candidates and its winner.
REPLAY_POLICIES = (
    "Young",
    "DalyLow",
    "DalyHigh",
    "Liu",
    "Bouguerra",
    "OptExp",
    "DPNextFailure",
    "PeriodCandidate",
    "PeriodLB",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    main_spans: list[tuple],
    worker_spans: list[tuple],
    wall: float,
    counters: dict,
    group_stats: list[dict],
    usage: dict,
    jobs: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``*_s`` metrics are self times summed over every process and thread,
    except ``replay.<policy>_s``, the inclusive time of that policy's
    replays.  ``main_spans`` are the tracing process's spans of the pass
    (its ``region`` span included), ``worker_spans`` the (pid, span)
    pairs the pool workers wrote, ``counters`` the program's own
    ScenarioResult counters, ``group_stats`` the sweep's per-group
    records and ``usage`` the disk tier's usage after the pass.
    """
    rows = self_times(main_spans)
    region_self = sum(r[1] for r in rows if r[0] == "region")
    per_pid: dict[int, list[tuple]] = defaultdict(list)
    for pid, span in worker_spans:
        per_pid[pid].append(span)
    for spans in per_pid.values():
        rows += self_times(spans)
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    units: list[float] = []
    for name, self_s, incl_s, n in rows:
        own[name] += self_s
        inclusive[name] += incl_s
        count[name] += n
        if name == "parallel.unit":
            units.append(incl_s)
    memo = counters["memo_hits"] + counters["memo_misses"]
    disk = counters["disk_hits"] + counters["disk_misses"]
    tables = counters["cache_hits"] + counters["cache_misses"]
    metrics = {
        "dp.solve_s": own["dp.solve"],
        "dp.solves": count["dp.solve"],
        "state.build_s": own["state.build"],
        "cache.lookup_s": own["cache.lookup"],
        "cache.replans": memo,
        "cache.memo_hit_ratio": _ratio(counters["memo_hits"], memo),
        "cache.dp_hit_ratio": _ratio(counters["cache_hits"], tables),
        "disk.store_s": own["disk.store"],
        "disk.stores": count["disk.store"],
        "disk.load_s": own["disk.load"],
        "disk.loads": count["disk.load"],
        "disk.hit_ratio": _ratio(counters["disk_hits"], disk),
        "disk.entries_end": usage["entries"],
        "disk.bytes_end": usage["bytes"],
        "engine.adaptive_self_s": own["engine.adaptive"],
        "batch.compile_s": own["batch.compile"],
        "batch.static_replay_s": own["batch.static_replay"],
        "batch.static_replays": count["batch.static_replay"],
        "batch.lower_bound_s": own["batch.lower_bound"],
        "traces.gen_s": own["traces.gen"],
        "traces.gen_calls": count["traces.gen"],
        "sweep.groups": len(group_stats),
        "sweep.build_group_s": sum(g["build_seconds"] for g in group_stats),
        "sweep.prefetched_groups": sum(bool(g["prefetched"]) for g in group_stats),
        "sweep.self_s": own["sweep.run"],
        "shm.publish_s": own["shm.publish"],
        "shm.attach_s": own["shm.attach"],
        "shm.bytes": count["shm.publish"],
        "parallel.units": len(units),
        "parallel.unit_self_s": own["parallel.unit"],
        "parallel.worker_busy_s": sum(units),
        "parallel.pool_busy_frac": sum(units) / (jobs * wall),
        "parallel.parent_wait_s": own["parallel.wait"],
        "parallel.unit_imbalance": _ratio(max(units, default=0.0) * len(units),
                                          sum(units)),
        "parallel.runner_self_s": own["parallel.runner"],
        "analysis.degradation_s": own["analysis.degradation"],
        "trace.unattributed_frac": region_self / wall,
        "trace.spans": len(rows),
    }
    for policy in REPLAY_POLICIES:
        metrics[f"replay.{policy}_s"] = inclusive[f"replay.{policy}"]
    return metrics
