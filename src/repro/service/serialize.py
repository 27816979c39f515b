"""Bit-exact JSON codecs for :class:`ScenarioResult`.

The result store archives scenario outcomes as JSON so they are
inspectable with ``jq`` and diffable in CI, yet a load must reproduce
the in-memory :class:`~repro.simulation.runner.ScenarioResult`
*bit-identically* — the acceptance gate of the service is that a stored
result equals a fresh ``repro run`` of the same scenario byte for byte.

Exactness argument: finite floats survive ``json`` round-trips exactly
(the encoder emits ``repr``-faithful shortest forms, the decoder parses
them back to the same IEEE-754 double); the non-finite values strict
JSON cannot carry are spelled as the strings ``"NaN"`` / ``"Infinity"``
/ ``"-Infinity"`` by :func:`repro.service.envelope.jsonable` and turned
back into the canonical quiet NaN / infinities on load — the same
values ``np.full(n, np.nan)`` and ``math.inf`` produce.  Integers and
booleans are exact natively.  Makespan vectors are re-materialized as
``float64`` arrays, matching the runner's dtype.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.service.envelope import from_jsonable, jsonable
from repro.simulation.results import SimulationResult
from repro.simulation.runner import ScenarioResult

__all__ = [
    "RESULT_FORMAT",
    "RESULT_PAYLOAD_FIELDS",
    "comparable_result_payload",
    "scenario_result_from_dict",
    "scenario_result_to_dict",
]

#: Serialization format tag; bump on any layout change.
RESULT_FORMAT = "repro.result/1"

#: The *result payload*: the fields that are a pure function of the
#: scenario spec.  Everything else in a serialized result (elapsed,
#: n_jobs, cache/memo/disk counters, scheduler stats, reuse flags) is
#: execution metadata that legitimately differs between bit-identical
#: runs.  Identity gates (service smoke, sweep tests, benchmarks)
#: compare exactly this subset.
RESULT_PAYLOAD_FIELDS = (
    "format",
    "makespans",
    "details",
    "work_time",
    "best_period",
    "infeasible",
)


def comparable_result_payload(doc: dict[str, Any]) -> dict[str, Any]:
    """The spec-determined subset of a serialized result document —
    what "bit-identical results" means across execution modes."""
    return {name: doc[name] for name in RESULT_PAYLOAD_FIELDS}

_SIM_FIELDS = (
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


def _sim_to_dict(res: SimulationResult | None) -> dict[str, Any] | None:
    if res is None:
        return None
    return {name: jsonable(getattr(res, name)) for name in _SIM_FIELDS}


def _sim_from_dict(raw: dict[str, Any] | None) -> SimulationResult | None:
    if raw is None:
        return None
    return SimulationResult(**{name: from_jsonable(raw[name])
                               for name in _SIM_FIELDS})


def scenario_result_to_dict(result: ScenarioResult) -> dict[str, Any]:
    """Lower a :class:`ScenarioResult` to strict-JSON-safe primitives."""
    return {
        "format": RESULT_FORMAT,
        "makespans": {
            name: jsonable(spans) for name, spans in result.makespans.items()
        },
        "details": {
            name: [_sim_to_dict(det) for det in dets]
            for name, dets in result.details.items()
        },
        "work_time": jsonable(result.work_time),
        "best_period": jsonable(result.best_period),
        "infeasible": {
            name: list(idxs) for name, idxs in result.infeasible.items()
        },
        "elapsed": jsonable(result.elapsed),
        "n_jobs": result.n_jobs,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "memo_hits": result.memo_hits,
        "memo_misses": result.memo_misses,
        "disk_hits": result.disk_hits,
        "disk_misses": result.disk_misses,
        "disk_evictions": result.disk_evictions,
        "trace_gen_reused": result.trace_gen_reused,
        "scheduler": jsonable(result.scheduler),
    }


def scenario_result_from_dict(raw: dict[str, Any]) -> ScenarioResult:
    """Rebuild the in-memory result; inverse of
    :func:`scenario_result_to_dict` (bit-identical fields)."""
    fmt = raw.get("format")
    if fmt != RESULT_FORMAT:
        raise ValueError(
            f"unsupported result format {fmt!r} (expected {RESULT_FORMAT!r})"
        )
    makespans = {
        name: np.asarray(from_jsonable(spans), dtype=np.float64)
        for name, spans in raw["makespans"].items()
    }
    details = {
        name: [_sim_from_dict(det) for det in dets]
        for name, dets in raw["details"].items()
    }
    return ScenarioResult(
        makespans=makespans,
        details=details,
        work_time=from_jsonable(raw["work_time"]),
        best_period=from_jsonable(raw["best_period"]),
        infeasible={
            name: [int(i) for i in idxs]
            for name, idxs in raw["infeasible"].items()
        },
        elapsed=from_jsonable(raw["elapsed"]),
        n_jobs=int(raw["n_jobs"]),
        cache_hits=int(raw["cache_hits"]),
        cache_misses=int(raw["cache_misses"]),
        memo_hits=int(raw["memo_hits"]),
        memo_misses=int(raw["memo_misses"]),
        # absent in results stored before the disk tier existed (the
        # store_version salt usually retires those, but stay tolerant)
        disk_hits=int(raw.get("disk_hits", 0)),
        disk_misses=int(raw.get("disk_misses", 0)),
        disk_evictions=int(raw.get("disk_evictions", 0)),
        trace_gen_reused=bool(raw.get("trace_gen_reused", False)),
        scheduler=from_jsonable(raw.get("scheduler", {})),
    )
