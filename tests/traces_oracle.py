"""Reference trace generation and merge: one Python step per unit.

The production path in :mod:`repro.traces.generation` keeps a platform
as one flat unit-major array and builds it, merges it and reads lifetime
starts with whole-array operations.  This module keeps the per-unit
formulation it replaced — one slice per unit, one ``np.full`` per unit
in the merge, one ``max`` per event for the lifetime starts — as the
oracle the flat path must equal bit for bit, dtypes included.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import FailureDistribution
from repro.traces import generation


def reference_per_unit(
    dist: FailureDistribution,
    n_units: int,
    horizon: float,
    downtime: float = 0.0,
    seed=0,
) -> list[np.ndarray]:
    """Per-unit failure dates of ``generate_platform_traces``, one unit
    at a time: the ``(n_units, batch)`` draw, then per unit a slice of
    its row, continued from the unit's spawned child stream when the
    batch ran short of the horizon."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    batch = generation._trace_batch_size(dist, horizon, downtime)
    xs = np.asarray(dist.sample(rng, size=(n_units, batch)), dtype=float)
    fails = np.cumsum(xs, axis=1) + downtime * np.arange(batch)[None, :]
    cuts = np.sum(fails <= horizon, axis=1)
    children = None
    per_unit: list[np.ndarray] = []
    for i in range(n_units):
        head = fails[i, : cuts[i]]
        if cuts[i] < batch:
            per_unit.append(head)
            continue
        if children is None:
            children = ss.spawn(n_units)
        tail_rng = np.random.default_rng(children[i])
        t = float(fails[i, -1]) + downtime
        tail_chunks = [head]
        while True:
            ys = np.asarray(dist.sample(tail_rng, size=batch), dtype=float)
            tail = t + np.cumsum(ys) + downtime * np.arange(batch)
            cut = int(np.searchsorted(tail, horizon, side="right"))
            tail_chunks.append(tail[:cut])
            if cut < batch:
                break
            t = tail[-1] + downtime
        per_unit.append(np.concatenate(tail_chunks))
    return per_unit


def reference_merge(
    per_unit: list[np.ndarray], n_units: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(times, units)`` of the first ``n_units`` units: concatenate,
    label each unit's events with one ``np.full``, stable sort."""
    chunks = [np.asarray(t, dtype=float) for t in per_unit[:n_units]]
    times = np.concatenate(chunks)
    units = np.concatenate(
        [np.full(c.size, i, dtype=np.int64) for i, c in enumerate(chunks)]
    )
    order = np.argsort(times, kind="stable")
    return times[order], units[order]


def reference_lifetime_starts(
    times: np.ndarray, units: np.ndarray, n_units: int, downtime: float, t0: float
) -> np.ndarray:
    """Per-unit lifetime starts as of ``t0``, one ``max`` per event."""
    starts = np.zeros(n_units)
    before = times < t0
    for u, tf in zip(units[before], times[before]):
        starts[u] = max(starts[u], tf + downtime)
    return starts
