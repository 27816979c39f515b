"""Shared benchmark plumbing.

Each benchmark runs one experiment driver once (``benchmark.pedantic``
with a single round — the experiments are themselves statistical), then
prints the paper-style table/series and archives it under
``benchmarks/results/`` (smoke runs only print it, so a smoke check
never overwrites an archived table).

The experiment scale is selected with the ``REPRO_BENCH_SCALE``
environment variable: ``smoke`` | ``small`` (default) | ``medium`` |
``paper``.  Execution: ``REPRO_BENCH_JOBS`` fans scenario work out over
N worker processes (0 = one per CPU; results are bit-identical to
serial) — see ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

from repro.experiments import MEDIUM, PAPER, SMALL, SMOKE, ExperimentScale
from repro.simulation.parallel import set_default_execution

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SCALES = {"smoke": SMOKE, "small": SMALL, "medium": MEDIUM, "paper": PAPER}


def _scale_name() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def bench_scale(**overrides) -> ExperimentScale:
    """The configured scale, with per-benchmark overrides applied.

    Additional environment knobs (applied after the named scale) let a
    constrained machine trade statistics for wall-clock:

    - ``REPRO_BENCH_TRACES``: cap ``n_traces``;
    - ``REPRO_BENCH_PETA`` / ``REPRO_BENCH_EXA``: platform sizes;
    - ``REPRO_BENCH_PPOINTS``: points on degradation-vs-p axes;
    - ``REPRO_BENCH_JOBS``: worker processes, installed as the
      process-wide default as a side effect, so every driver the
      benchmark calls inherits it.
    """
    jobs = os.environ.get("REPRO_BENCH_JOBS")
    if jobs:
        set_default_execution(jobs=int(jobs))
    scale = _SCALES.get(_scale_name(), SMALL)
    env = {}
    for var, field in (
        ("REPRO_BENCH_TRACES", "n_traces"),
        ("REPRO_BENCH_PETA", "ptotal_peta"),
        ("REPRO_BENCH_EXA", "ptotal_exa"),
        ("REPRO_BENCH_PPOINTS", "n_p_points"),
    ):
        value = os.environ.get(var)
        if value:
            env[field] = int(value)
    if "n_traces" in env:
        env.setdefault(
            "period_lb_traces", min(scale.period_lb_traces, env["n_traces"])
        )
    merged = {**env, **overrides}
    return dataclasses.replace(scale, **merged) if merged else scale


def report(name: str, text: str) -> None:
    """Echo a result block to the real terminal (bypassing pytest's
    capture) and archive it under ``benchmarks/results/`` — unless the
    scale is ``smoke``, whose tables are not results."""
    import sys

    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)  # captured output (visible with -s / on failure)
    try:
        sys.__stdout__.write(banner)
        sys.__stdout__.flush()
    except (AttributeError, ValueError):  # pragma: no cover - no terminal
        pass
    if _scale_name() != "smoke":
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
