"""Command-line interface — service-grade JSON contract.

**stdout is always exactly one JSON document** (the envelope of
:mod:`repro.service.envelope`); every human-readable line goes to
stderr.  Pipelines therefore never sniff: ``repro <anything> | jq .``
works for every subcommand (see ``docs/usage.md``).

Subcommands:

- ``repro run``         — run one scenario; archived-result JSON.
- ``repro sweep``       — a parameter grid of scenarios, shared-trace
  planned (``--grid key=a,b,c``; ``--submit`` sends it to the daemon).
- ``repro compare``     — several policies on one scenario, ranked.
- ``repro plan``        — Theorem 1's optimal plan for a sequential job.
- ``repro simulate``    — per-trace view of a single policy.
- ``repro experiment``  — a paper table/figure driver.
- ``repro mtbf``        — Figure-1 rejuvenation MTBF numbers.
- ``repro lint``        — reprolint static analysis.
- ``repro serve``       — the scenario daemon (``docs/service.md``).
- ``repro submit``      — send a scenario to the daemon.
- ``repro status``      — poll a job (or list all jobs).
- ``repro result``      — fetch a finished job's result.
- ``repro store``       — result-store stats / wipe.

Exit codes: 0 success, 1 domain failure (infeasible policy, lint
findings, failed job), 2 usage or internal error.

Durations accept suffixes: ``s`` (default), ``m``, ``h``, ``d``, ``w``,
``y`` — e.g. ``--work 20d --mtbf 1w --checkpoint 600``.

Scenario-running subcommands take ``--jobs N`` (fan scenario work out
over ``N`` worker processes; 0 = one per CPU; results are bit-identical
to ``--jobs 1``) and ``--no-disk-cache`` (keep every solve in-process,
e.g. on a read-only filesystem) — see ``docs/performance.md``.
``simulate`` replays its traces serially and takes only
``--no-disk-cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.service.envelope import emit, envelope, error_envelope, hlog
from repro.units import DAY, HOUR, MINUTE, WEEK, YEAR

__all__ = ["main", "parse_duration"]

_SUFFIXES = {
    "s": 1.0,
    "m": MINUTE,
    "h": HOUR,
    "d": DAY,
    "w": WEEK,
    "y": YEAR,
}

# The paper's policy roster as CLI keys (tests/test_policies.py cross-checks
# it against the policies package, experiment tables and EXPERIMENTS.md).
_POLICY_KEYS = (
    "young",
    "dalylow",
    "dalyhigh",
    "optexp",
    "bouguerra",
    "liu",
    "dpnextfailure",
    "dpmakespan",
)
_POLICY_HELP = "|".join(_POLICY_KEYS) + "|period:<duration>"


def parse_duration(text: str) -> float:
    """'600' -> 600 s, '20d' -> 20 days, '1.5h' -> 5400 s."""
    text = text.strip().lower()
    if not text:
        raise argparse.ArgumentTypeError("empty duration")
    if text[-1] in _SUFFIXES:
        mult, body = _SUFFIXES[text[-1]], text[:-1]
    else:
        mult, body = 1.0, text
    try:
        value = float(body)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("duration must be positive")
    return value * mult


def _normalize_policy(name: str) -> str:
    """Canonicalize a CLI policy spelling for :class:`ScenarioSpec`.

    ``period:<duration>`` accepts duration suffixes on the CLI
    (``period:2h``) but is stored in seconds (``period:7200.0``) so two
    spellings of the same period share one scenario signature.
    """
    name = name.strip()
    if name.startswith("period:"):
        return f"period:{parse_duration(name.split(':', 1)[1])!r}"
    return name


def _make_dist(args: argparse.Namespace):
    from repro.distributions import Exponential, Weibull

    if args.dist == "exponential":
        return Exponential.from_mtbf(args.mtbf)
    return Weibull.from_mtbf(args.mtbf, args.shape)


def _make_policy(name: str):
    from repro.service.spec import SpecError, policy_from_name

    try:
        return policy_from_name(_normalize_policy(name))
    except SpecError as exc:
        raise SystemExit(f"error: {exc}") from exc


# ----------------------------------------------------------------------
# scenario spec construction
# ----------------------------------------------------------------------


def _coerce_override(value: str) -> Any:
    """``--override`` values: JSON first, then duration, then string."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        pass
    try:
        return parse_duration(value)
    except argparse.ArgumentTypeError:
        return value


def _raw_spec_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The raw spec dict a scenario subcommand describes: ``--spec
    file.json`` (or ``-`` for stdin) as the base, CLI flags over it,
    ``--override key=val`` entries last.  Only fields the user actually
    gave appear — spec defaults are applied by
    :meth:`ScenarioSpec.from_dict` (directly or via ``expand_grid``)."""
    from repro.service.spec import SpecError

    raw: dict[str, Any] = {}
    if getattr(args, "spec", None):
        if args.spec == "-":
            raw = json.loads(sys.stdin.read())
        else:
            raw = json.loads(Path(args.spec).read_text())
        if not isinstance(raw, dict):
            raise SpecError("--spec document must be a JSON object")
        # submitted envelopes / store entries carry the spec nested
        if "spec" in raw and isinstance(raw["spec"], dict):
            raw = raw["spec"]
    flags = {
        "dist": getattr(args, "dist", None),
        "mtbf": getattr(args, "mtbf", None),
        "shape": getattr(args, "shape", None),
        "p": getattr(args, "units", None),
        "work": getattr(args, "work", None),
        "checkpoint": getattr(args, "checkpoint", None),
        "recovery": getattr(args, "recovery", None),
        "downtime": getattr(args, "downtime", None),
        "n_traces": getattr(args, "traces", None),
        "seed": getattr(args, "seed", None),
        "horizon": getattr(args, "horizon", None),
    }
    for key, value in flags.items():
        if value is not None:
            raw[key] = value
    policies = getattr(args, "policies", None)
    if policies is not None:
        names = policies if isinstance(policies, list) else policies.split(",")
        raw["policies"] = [_normalize_policy(n) for n in names if n.strip()]
    if getattr(args, "period_lb", False):
        raw["include_period_lb"] = True
    if getattr(args, "no_lower_bound", False):
        raw["include_lower_bound"] = False
    for item in getattr(args, "override", None) or []:
        if "=" not in item:
            raise SpecError(f"--override needs key=val, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = _coerce_override(value.strip())
    if isinstance(raw.get("policies"), (list, tuple)):
        raw["policies"] = [_normalize_policy(str(n)) for n in raw["policies"]]
    return raw


def _spec_from_args(args: argparse.Namespace):
    """Build the canonical :class:`ScenarioSpec` a scenario subcommand
    describes (see :func:`_raw_spec_from_args` for precedence)."""
    from repro.service.spec import ScenarioSpec

    return ScenarioSpec.from_dict(_raw_spec_from_args(args))


def _parse_grid(items: list[str] | None) -> dict[str, list[Any]]:
    """``--grid key=v1,v2,...`` entries -> expand_grid axes.

    Values parse like ``--override`` (JSON, then duration, then string).
    The ``policies`` axis is special: each comma-separated value is one
    point's policy *set*, with ``+`` joining names within a set
    (``--grid policies=young+dalylow,optexp`` = two points)."""
    from repro.service.spec import SpecError

    grid: dict[str, list[Any]] = {}
    for item in items or []:
        if "=" not in item:
            raise SpecError(f"--grid needs key=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        key = key.strip()
        parsed: list[Any] = []
        for chunk in values.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if key == "policies":
                parsed.append([
                    _normalize_policy(n)
                    for n in chunk.split("+") if n.strip()
                ])
            else:
                parsed.append(_coerce_override(chunk))
        if not parsed:
            raise SpecError(f"--grid {key!r} needs at least one value")
        grid[key] = parsed
    return grid


# ----------------------------------------------------------------------
# scenario subcommands (direct execution)
# ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    from repro.service.serialize import scenario_result_to_dict

    spec = _spec_from_args(args)
    hlog(f"running scenario {spec.signature()[:12]} "
         f"({len(spec.policies)} policies x {spec.n_traces} traces)")
    result = spec.run(jobs=args.jobs)
    data = {
        "spec": spec.to_dict(),
        "signature": spec.signature(),
        "result": scenario_result_to_dict(result),
    }
    hlog(f"done in {result.elapsed:.2f}s "
         f"(cache {result.cache_hits}/{result.cache_hits + result.cache_misses},"
         f" memo {result.memo_hits}/{result.memo_hits + result.memo_misses},"
         f" disk {result.disk_hits}/{result.disk_hits + result.disk_misses})")
    return emit(envelope("run", data))


def cmd_compare(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis import degradation_from_best, format_degradation_table

    spec = _spec_from_args(args)
    if len(spec.policies) < 2:
        hlog("note: comparing a single policy; add --policies a,b,c")
    result = spec.run(jobs=args.jobs)
    stats = degradation_from_best(result.makespans)
    policies: dict[str, Any] = {}
    for name, spans in result.makespans.items():
        finite = np.asarray(spans)[np.isfinite(spans)]
        policies[name] = {
            "mean_makespan": float(np.mean(finite)) if finite.size else None,
            "n_valid": int(finite.size),
            "degradation": {
                "avg": stats[name].avg,
                "std": stats[name].std,
            },
            "infeasible_traces": result.infeasible.get(name, []),
        }
    contenders = {
        n: s.avg for n, s in stats.items()
        if n != "LowerBound" and not np.isnan(s.avg)
    }
    best = min(contenders, key=contenders.get) if contenders else None
    hlog(format_degradation_table(stats, title="degradation from best"))
    data = {
        "spec": spec.to_dict(),
        "signature": spec.signature(),
        "policies": policies,
        "best": best,
        "best_period": result.best_period,
    }
    return emit(envelope("compare", data))


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.service.serialize import scenario_result_to_dict
    from repro.service.spec import expand_grid
    from repro.simulation.sweep import run_sweep

    base = _raw_spec_from_args(args)
    grid = _parse_grid(args.grid)
    specs = expand_grid(base, grid)

    if args.submit:
        client = _client(args)
        env = client.submit_batch(
            specs=[spec.to_dict() for spec in specs],
            execution=None if args.jobs is None else {"jobs": args.jobs},
        )
        if not env["ok"]:
            return emit({**env, "command": "sweep"})
        data = dict(env["data"])
        data["endpoint"] = client.endpoint
        hlog(f"submitted {data.get('batch_id')} ({data.get('n_points')} "
             f"points, {data.get('n_groups')} trace groups) "
             f"-> {data.get('state')}")
        if args.wait and data.get("state") not in ("done", "failed"):
            env = client.wait_batch(data["batch_id"], timeout=args.timeout)
            if not env["ok"]:
                return emit({**env, "command": "sweep"})
            data = {**env["data"], "endpoint": client.endpoint}
            hlog(f"{data.get('batch_id')} -> {data.get('state')}")
        exit_code = 1 if data.get("state") == "failed" else 0
        return emit(envelope(
            "sweep", data, ok=exit_code == 0, exit_code=exit_code,
            error=None if exit_code == 0 else {
                "type": "BatchFailed",
                "message": "one or more sweep member jobs failed",
            },
        ))

    axes = ", ".join(f"{k}x{len(v)}" for k, v in grid.items())
    hlog(f"sweep: {len(specs)} grid point(s) ({axes or 'no axes'})")
    sweep = run_sweep(
        specs,
        jobs=args.jobs,
        progress=lambda done, total: hlog(f"sweep: {done}/{total} points"),
    )
    points = [
        {
            "spec": spec.to_dict(),
            "signature": spec.signature(),
            "result": scenario_result_to_dict(result),
        }
        for spec, result in zip(specs, sweep.results)
    ]
    plan = sweep.plan.to_dict()
    data = {
        "base": base,
        "grid": grid,
        "plan": plan,
        "n_jobs": sweep.n_jobs,
        "elapsed": sweep.elapsed,
        "points": points,
        "group_stats": sweep.group_stats,
        "scheduler": sweep.scheduler_summary(),
        "counters": sweep.counters,
    }
    c = sweep.counters
    hlog(f"sweep done in {sweep.elapsed:.2f}s: {len(points)} points over "
         f"{plan['n_groups']} trace group(s), "
         f"{plan['shared_trace_gens_saved']} trace generation(s) shared "
         f"(run-level cache {c.get('cache_hits', 0)} / "
         f"memo {c.get('memo_hits', 0)} / disk {c.get('disk_hits', 0)} hits)")
    return emit(envelope("sweep", data))


# ----------------------------------------------------------------------
# classic subcommands
# ----------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.core import expected_makespan_optimal

    plan = expected_makespan_optimal(
        1.0 / args.mtbf, args.work, args.checkpoint, args.downtime, args.recovery
    )
    hlog(f"optimal chunks   : {plan.num_chunks}")
    hlog(f"chunk size       : {plan.chunk_size:.1f} s "
         f"({plan.chunk_size / HOUR:.3f} h)")
    hlog(f"expected makespan: {plan.expected_makespan:.0f} s "
         f"({plan.expected_makespan / DAY:.3f} d)")
    data = {
        "mtbf": args.mtbf,
        "work": args.work,
        "checkpoint": args.checkpoint,
        "recovery": args.recovery,
        "downtime": args.downtime,
        "num_chunks": plan.num_chunks,
        "chunk_size": plan.chunk_size,
        "expected_makespan": plan.expected_makespan,
        "failure_free_time": args.work,
    }
    return emit(envelope("plan", data))


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.policies.base import PolicyInfeasibleError
    from repro.simulation import simulate_job, simulate_lower_bound
    from repro.traces import generate_platform_traces

    dist = _make_dist(args)
    mtbf_platform = (dist.mean() + args.downtime) / args.units
    # the 60x on per-processor work is a horizon budget, not a minute
    horizon = 60.0 * args.work / args.units + args.mtbf  # reprolint: disable=R2
    traces_out: list[dict[str, Any]] = []
    spans, fails = [], []
    for i in range(args.traces):
        tr = generate_platform_traces(
            dist, args.units, horizon, downtime=args.downtime, seed=[args.seed, i]
        ).for_job(args.units)
        try:
            res = simulate_job(
                _make_policy(args.policy),
                args.work / args.units,
                tr,
                args.checkpoint,
                args.recovery,
                dist,
                platform_mtbf=mtbf_platform,
            )
        except PolicyInfeasibleError as exc:
            hlog(f"error: {args.policy} is infeasible on this scenario: {exc}")
            return emit(error_envelope(
                "simulate", "PolicyInfeasibleError", str(exc), exit_code=1))
        record: dict[str, Any] = {
            "trace": i,
            "makespan": res.makespan,
            "n_failures": res.n_failures,
            "n_checkpoints": res.n_checkpoints,
        }
        line = (f"trace {i}: {res.makespan / DAY:8.3f} d "
                f"({res.n_failures} failures")
        if args.lower_bound:
            lb = simulate_lower_bound(
                args.work / args.units, tr, args.checkpoint, args.recovery
            )
            record["lower_bound"] = lb.makespan
            line += f"; lower bound {lb.makespan / DAY:.3f} d"
        hlog(line + ")")
        traces_out.append(record)
        spans.append(res.makespan)
        fails.append(res.n_failures)
    hlog(f"\n{args.policy}: mean makespan {np.mean(spans) / DAY:.3f} d "
         f"over {args.traces} traces, avg failures {np.mean(fails):.1f}")
    data = {
        "policy": args.policy,
        "dist": args.dist,
        "p": args.units,
        "work": args.work,
        "mtbf": args.mtbf,
        "checkpoint": args.checkpoint,
        "recovery": args.recovery,
        "downtime": args.downtime,
        "seed": args.seed,
        "traces": traces_out,
        "summary": {
            "mean_makespan": float(np.mean(spans)),
            "avg_failures": float(np.mean(fails)),
            "n_traces": args.traces,
        },
    }
    return emit(envelope("simulate", data))


_EXPERIMENTS = (
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
)


def _stats_dict(stats) -> dict[str, Any]:
    return {
        name: {"avg": s.avg, "std": s.std, "n_valid": s.n_valid}
        for name, s in stats.items()
    }


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import ascii_chart, format_degradation_table, format_series
    from repro.experiments import MEDIUM, SMALL, SMOKE
    from repro.simulation.parallel import set_default_execution

    # experiment drivers read the process-wide worker count
    set_default_execution(jobs=args.jobs)
    scale = {"smoke": SMOKE, "small": SMALL, "medium": MEDIUM}[args.scale]
    name = args.name
    data: dict[str, Any] = {"name": name, "scale": args.scale}

    if name in ("table2", "table3"):
        from repro.experiments.single_proc import run_single_proc_experiment

        kind = "exponential" if name == "table2" else "weibull"
        result = run_single_proc_experiment(kind, scale=scale)
        rendered: list[str] = []
        tables: dict[str, Any] = {}
        for mtbf in result.mtbfs:
            rendered.append(format_degradation_table(
                result.stats[mtbf], title=f"-- MTBF {mtbf / HOUR:.0f} h --"))
            tables[f"{mtbf:g}"] = _stats_dict(result.stats[mtbf])
        data["tables"] = tables
        data["rendered"] = "\n\n".join(rendered)
    elif name == "table4":
        from repro.experiments.scaling import run_table4

        result = run_table4(scale=scale)
        data["table"] = _stats_dict(result.stats)
        data["dp_failures"] = {
            "avg": result.dp_failures_avg,
            "max": result.dp_failures_max,
        }
        data["rendered"] = (
            format_degradation_table(result.stats, title="Table 4")
            + f"\n\nDPNextFailure failures/run: avg {result.dp_failures_avg:.1f},"
              f" max {result.dp_failures_max}"
        )
    elif name == "fig1":
        from repro.experiments.rejuvenation_fig import run_rejuvenation_figure

        fig = run_rejuvenation_figure()
        series = {
            "with rejuvenation": fig.log2_mtbf_with_rejuvenation,
            "without": fig.log2_mtbf_without_rejuvenation,
        }
        xs = list(fig.p_exponents)
        data["x"] = {"label": "log2(p)", "values": xs}
        data["series"] = {k: list(v) for k, v in series.items()}
        data["rendered"] = (
            ascii_chart(xs, series, title="Figure 1: log2 platform MTBF")
            if args.chart else format_series("log2(p)", xs, series, fmt="8.2f")
        )
    else:
        if name == "fig5":
            from repro.experiments.shape_sweep import run_shape_sweep

            result = run_shape_sweep(scale=scale)
            xs, series = list(result.shapes), result.series()
            xlabel = "k"
        elif name == "fig7":
            from repro.experiments.logbased import run_logbased_experiment

            result = run_logbased_experiment(scale=scale)
            xs, series = list(result.p_values), result.series()
            xlabel = "p"
        else:  # fig2/3/4/6: scaling figures
            from repro.experiments.scaling import run_scaling_experiment

            platform_kind = {
                "fig2": "peta", "fig3": "exa", "fig4": "peta", "fig6": "exa",
            }[name]
            dist_kind = "exponential" if name in ("fig2", "fig3") else "weibull"
            result = run_scaling_experiment(platform_kind, dist_kind, scale=scale)
            xs, series = list(result.p_values), result.series()
            xlabel = "p"
        data["x"] = {"label": xlabel, "values": xs}
        data["series"] = {k: list(v) for k, v in series.items()}
        data["rendered"] = (
            ascii_chart(xs, series, title=name)
            if args.chart else format_series(xlabel, xs, series)
        )
    hlog(data["rendered"])
    return emit(envelope("experiment", data))


def cmd_lint(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.lint import all_rules, format_diagnostic, run_lint

    if args.list_rules:
        rules = [
            {"code": r.code, "name": r.name, "description": r.description}
            for r in all_rules()
        ]
        for rule in rules:
            hlog(f"{rule['code']}  {rule['name']:16s} {rule['description']}")
        return emit(envelope("lint", {"rules": rules}))
    select = args.select.split(",") if args.select else None
    try:
        report = run_lint(args.paths or ["src"], select=select)
    except (FileNotFoundError, KeyError) as exc:
        return emit(error_envelope("lint", type(exc).__name__, str(exc)))
    for d in report.diagnostics:
        hlog(format_diagnostic(d))
    n = len(report.diagnostics)
    exit_code = 2 if report.has_errors else 1 if n else 0
    if exit_code:
        hlog(f"\n{n} finding{'s' if n != 1 else ''}"
             + ("; parse errors" if report.has_errors else ""))
    return emit(envelope(
        "lint",
        {"files": report.files,
         "diagnostics": [asdict(d) for d in report.diagnostics]},
        ok=exit_code == 0,
        exit_code=exit_code,
        error=None if exit_code == 0 else {
            "type": "ParseErrors" if exit_code == 2 else "Findings",
            "message": f"{n} finding(s)"
                       + ("; parse errors" if report.has_errors else ""),
        },
    ))


def cmd_mtbf(args: argparse.Namespace) -> int:
    from repro.analysis import (
        platform_mtbf_all_rejuvenation,
        platform_mtbf_single_rejuvenation,
    )
    from repro.distributions import Weibull

    dist = Weibull.from_mtbf(args.mtbf, args.shape)
    w = platform_mtbf_all_rejuvenation(dist, args.p, args.downtime)
    wo = platform_mtbf_single_rejuvenation(dist, args.p, args.downtime)
    hlog(f"p = {args.p}, Weibull k = {args.shape}, "
         f"processor MTBF {args.mtbf / YEAR:.1f} y")
    hlog(f"platform MTBF with all-rejuvenation   : {w:12.1f} s")
    hlog(f"platform MTBF with single-rejuvenation: {wo:12.1f} s "
         f"({wo / w:.1f}x better)")
    data = {
        "p": args.p,
        "shape": args.shape,
        "mtbf": args.mtbf,
        "downtime": args.downtime,
        "platform_mtbf_all_rejuvenation": w,
        "platform_mtbf_single_rejuvenation": wo,
        "ratio": wo / w,
    }
    return emit(envelope("mtbf", data))


# ----------------------------------------------------------------------
# service subcommands
# ----------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceDaemon
    from repro.service.queue import JobQueue
    from repro.service.store import ResultStore

    store = ResultStore(Path(args.store_dir) if args.store_dir else None)
    queue = JobQueue(store=store, workers=args.workers)
    daemon = ServiceDaemon(
        queue=queue,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
    )
    # the one JSON document this long-running command prints: where the
    # daemon ended up listening (port 0 binds an ephemeral port)
    emit(envelope("serve", {
        "endpoint": daemon.endpoint,
        "pid": os.getpid(),
        "workers": args.workers,
        "store": store.stats(),
    }))
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        hlog("[serve] interrupted")
    return 0


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(endpoint=args.endpoint)


def cmd_submit(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    client = _client(args)
    env = client.submit(
        spec.to_dict(),
        execution=None if args.jobs is None else {"jobs": args.jobs},
    )
    if not env["ok"]:
        return emit({**env, "command": "submit"})
    data = dict(env["data"])
    data["endpoint"] = client.endpoint
    state = data.get("state")
    hlog(f"submitted {data.get('job_id')} ({data.get('signature', '')[:12]}) "
         f"-> {state}")
    if args.wait and state not in ("done", "failed", "cached"):
        env = client.wait(data["job_id"], timeout=args.timeout)
        data = {**env["data"], "endpoint": client.endpoint}
        state = data.get("state")
        hlog(f"{data.get('job_id')} -> {state}")
    exit_code = 1 if state == "failed" else 0
    return emit(envelope("submit", data, ok=exit_code == 0, exit_code=exit_code,
                         error=None if exit_code == 0 else {
                             "type": "JobFailed",
                             "message": data.get("error") or "job failed",
                         }))


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job_id is None:
        env = client.jobs()
        data = dict(env["data"])
        data["endpoint"] = client.endpoint
        hlog(f"{len(data.get('jobs', []))} job(s) at {client.endpoint}")
        return emit(envelope("status", data))
    env = client.status(args.job_id)
    if not env["ok"]:
        return emit({**env, "command": "status"})
    data = {**env["data"], "endpoint": client.endpoint}
    progress = data.get("progress") or {}
    hlog(f"{args.job_id}: {data.get('state')} "
         f"({progress.get('done', 0)}/{progress.get('total', 0)} units)")
    return emit(envelope("status", data))


def cmd_result(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.wait:
        env = client.wait(args.job_id, timeout=args.timeout)
        if not env["ok"]:
            return emit({**env, "command": "result"})
    env = client.result(args.job_id)
    if not env["ok"]:
        return emit({**env, "command": "result"})
    data = {**env["data"], "endpoint": client.endpoint}
    state = (data.get("status") or {}).get("state")
    exit_code = 1 if state == "failed" else 0
    hlog(f"{args.job_id}: {state}")
    return emit(envelope("result", data, ok=exit_code == 0, exit_code=exit_code,
                         error=None if exit_code == 0 else {
                             "type": "JobFailed",
                             "message": (data.get("status") or {}).get("error")
                             or "job failed",
                         }))


def cmd_store(args: argparse.Namespace) -> int:
    from repro.core.diskcache import DiskSolveCache
    from repro.service.store import ResultStore

    base = Path(args.store_dir) if args.store_dir else None
    store = ResultStore(base)
    wiped: dict[str, int] = {}
    if args.wipe:
        wiped["wiped"] = store.wipe()
        hlog(f"removed {wiped['wiped']} archived result(s) from {store.root}")
    if args.wipe_solves:
        wiped["wiped_solves"] = DiskSolveCache(root=base).wipe()
        hlog(f"removed {wiped['wiped_solves']} persisted solve(s) from "
             f"the solvecache tier")
    if wiped:
        return emit(envelope("store", {**wiped, **store.stats()}))
    data = store.stats()
    if args.entries:
        data["entry_list"] = [
            {
                "signature": e.signature,
                "hits": e.hits,
                "created_at": e.created_at,
                "spec": e.spec,
            }
            for e in store.entries()
        ]
    hlog(f"{data['entries']} entr{'y' if data['entries'] == 1 else 'ies'}, "
         f"{data['total_hits']} hit(s) at {data['root']}")
    solves = data.get("solvecache") or {}
    lifetime = solves.get("lifetime") or {}
    hlog(f"solvecache: {solves.get('entries', 0)} entr"
         f"{'y' if solves.get('entries', 0) == 1 else 'ies'}, "
         f"{solves.get('bytes', 0)} byte(s), lifetime hit rate "
         f"{lifetime.get('hit_rate', 0.0):.0%}")
    return emit(envelope("store", data))


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_execution_args(p: argparse.ArgumentParser, jobs: bool = True) -> None:
    """``--no-disk-cache``, plus ``--jobs`` where the command fans work
    out (``jobs=False`` for the serial ``simulate`` loop)."""
    if jobs:
        p.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes for scenario execution "
                            "(default 1 = serial; 0 = one per CPU; results "
                            "are bit-identical for any N)")
    p.add_argument("--no-disk-cache", action="store_true",
                   help="bypass the persistent disk solve tier under "
                        ".repro-service/solvecache/ (bit-identical "
                        "results; every solve stays in-process)")


def _add_common_scenario_args(
    p: argparse.ArgumentParser, defaults: bool = True
) -> None:
    """The platform flags.  ``defaults=False`` leaves every value None
    so spec-based subcommands can tell "flag given" from "default"."""
    kw = (lambda v: {"default": v}) if defaults else (lambda v: {"default": None})
    p.add_argument("--mtbf", type=parse_duration, **kw("1d"),
                   help="processor MTBF (default 1d)")
    p.add_argument("--checkpoint", "-C", type=parse_duration, **kw("600"),
                   help="checkpoint duration (default 600 s)")
    p.add_argument("--recovery", "-R", type=parse_duration, **kw("600"),
                   help="recovery duration (default 600 s)")
    p.add_argument("--downtime", "-D", type=parse_duration, **kw("60"),
                   help="downtime after a failure (default 60 s)")
    p.add_argument("--work", "-W", type=parse_duration, **kw("20d"),
                   help="total sequential workload (default 20 d)")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    """Flags for subcommands that build a canonical ScenarioSpec."""
    _add_common_scenario_args(p, defaults=False)
    p.add_argument("--dist", choices=("exponential", "weibull"), default=None)
    p.add_argument("--shape", "-k", type=float, default=None,
                   help="Weibull shape (spec default 0.7)")
    p.add_argument("--units", "-p", type=int, default=None, metavar="P",
                   help="processors (spec default 1)")
    p.add_argument("--policies", default=None, metavar="A,B,C",
                   help=f"comma-separated policy names ({_POLICY_HELP})")
    p.add_argument("--traces", type=int, default=None,
                   help="failure traces per scenario (spec default 3)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=parse_duration, default=None,
                   help="trace horizon (default: 60*W/p + MTBF budget)")
    p.add_argument("--period-lb", action="store_true",
                   help="include the searched PeriodLB baseline")
    p.add_argument("--no-lower-bound", action="store_true",
                   help="skip the omniscient LowerBound baseline")
    p.add_argument("--spec", metavar="FILE",
                   help="base scenario spec JSON ('-' = stdin); flags "
                        "and --override entries are applied on top")
    p.add_argument("--override", action="append", metavar="KEY=VAL",
                   help="override one spec field (repeatable); values "
                        "parse as JSON, then duration, then string")


def _add_endpoint_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", default=None, metavar="URL",
                   help="daemon endpoint: http://host:port or "
                        "unix:/path (default $REPRO_ENDPOINT or "
                        "http://127.0.0.1:8642)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Checkpointing strategies for parallel jobs (SC 2011) "
        "— reproduction toolkit.  stdout is always one JSON envelope; "
        "human logs go to stderr (see docs/usage.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, print result JSON")
    _add_spec_args(p_run)
    _add_execution_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter grid of scenarios, shared-trace "
                      "planned")
    _add_spec_args(p_sweep)
    p_sweep.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                         help="one grid axis (repeatable); values parse "
                              "like --override; the policies axis joins "
                              "names with '+' within a value "
                              "(policies=young+dalylow,optexp)")
    _add_execution_args(p_sweep)
    _add_endpoint_arg(p_sweep)
    p_sweep.add_argument("--submit", action="store_true",
                         help="send the sweep to the daemon as one "
                              "batch (POST /v1/batches) instead of "
                              "running locally")
    p_sweep.add_argument("--wait", action="store_true",
                         help="with --submit: block until every member "
                              "job is terminal")
    p_sweep.add_argument("--timeout", type=parse_duration, default=None,
                         help="--wait limit (duration; default none)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="compare policies on one scenario")
    _add_spec_args(p_cmp)
    _add_execution_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, policies_default="young,dalylow,optexp")

    p_plan = sub.add_parser("plan", help="Theorem 1's optimal periodic plan")
    _add_common_scenario_args(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="simulate a policy on traces")
    _add_common_scenario_args(p_sim)
    p_sim.add_argument("--dist", choices=("exponential", "weibull"),
                       default="weibull")
    p_sim.add_argument("--shape", "-k", type=float, default=0.7,
                       help="Weibull shape (default 0.7)")
    p_sim.add_argument("--units", "-p", type=int, default=1,
                       help="processors (default 1)")
    p_sim.add_argument("--policy", default="dpnextfailure",
                       help=_POLICY_HELP)
    p_sim.add_argument("--traces", type=int, default=3)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--lower-bound", action="store_true",
                       help="also report the omniscient lower bound")
    _add_execution_args(p_sim, jobs=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a paper table/figure")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("--scale", choices=("smoke", "small", "medium"),
                       default="smoke")
    p_exp.add_argument("--chart", action="store_true",
                       help="render figures as ASCII charts (stderr)")
    _add_execution_args(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_lint = sub.add_parser("lint", help="run reprolint static analysis")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src)")
    p_lint.add_argument("--select", metavar="RULES",
                        help="comma-separated rule codes/names "
                             "(e.g. R1,unit-safety); default: all")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.set_defaults(func=cmd_lint)

    p_mtbf = sub.add_parser("mtbf", help="Figure-1 rejuvenation analytics")
    p_mtbf.add_argument("--p", type=int, default=45_208)
    p_mtbf.add_argument("--shape", "-k", type=float, default=0.7)
    p_mtbf.add_argument("--mtbf", type=parse_duration, default="125y")
    p_mtbf.add_argument("--downtime", "-D", type=parse_duration, default="60")
    p_mtbf.set_defaults(func=cmd_mtbf)

    p_serve = sub.add_parser("serve", help="run the scenario daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = ephemeral; default 8642)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="serve on a unix socket instead of TCP")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="concurrent scenarios (default 1; each "
                              "scenario may itself use --jobs processes)")
    p_serve.add_argument("--store-dir", default=None, metavar="DIR",
                         help="result store root (default: "
                              "$REPRO_SERVICE_DIR or ./.repro-service)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser("submit", help="submit a scenario to the daemon")
    _add_spec_args(p_submit)
    _add_execution_args(p_submit)
    _add_endpoint_arg(p_submit)
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job is terminal")
    p_submit.add_argument("--timeout", type=parse_duration, default=None,
                          help="--wait limit (duration; default none)")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status", help="poll a job (or list all)")
    p_status.add_argument("job_id", nargs="?", default=None)
    _add_endpoint_arg(p_status)
    p_status.set_defaults(func=cmd_status)

    p_result = sub.add_parser("result", help="fetch a finished job's result")
    p_result.add_argument("job_id")
    _add_endpoint_arg(p_result)
    p_result.add_argument("--wait", action="store_true",
                          help="block until the job is terminal first")
    p_result.add_argument("--timeout", type=parse_duration, default=None,
                          help="--wait limit (duration; default none)")
    p_result.set_defaults(func=cmd_result)

    p_store = sub.add_parser("store", help="result-store stats / wipe")
    p_store.add_argument("--store-dir", default=None, metavar="DIR",
                         help="store root (default: $REPRO_SERVICE_DIR "
                              "or ./.repro-service)")
    p_store.add_argument("--entries", action="store_true",
                         help="include per-entry signatures and hits")
    p_store.add_argument("--wipe", action="store_true",
                         help="delete every archived result of the "
                              "current code version")
    p_store.add_argument("--wipe-solves", action="store_true",
                         help="delete every persisted DP/replan solve "
                              "(all code versions) from the solvecache "
                              "tier")
    p_store.set_defaults(func=cmd_store)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Guarantees the stdout contract even on failure: any uncaught
    domain/transport error becomes an error envelope with exit code 2
    (argparse usage errors exit 2 via SystemExit with an *empty*
    stdout, which vacuously satisfies "nothing but JSON on stdout").
    """
    args = build_parser().parse_args(argv)
    # compare defaults to a 3-policy panel when no --policies was given
    if getattr(args, "policies", None) is None and hasattr(
        args, "policies_default"
    ):
        args.policies = args.policies_default
    if getattr(args, "no_disk_cache", False):
        from repro.core.diskcache import configure_disk_cache

        # a process-wide switch, set once before any pool forks
        configure_disk_cache(enabled=False)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        hlog("interrupted")
        return 130  # reprolint: disable=R11  (128+SIGINT shell convention)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        # one uniform failure surface: envelope on stdout, trace on stderr
        import traceback

        traceback.print_exc()
        return emit(error_envelope(
            args.command or "repro", type(exc).__name__, str(exc)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
