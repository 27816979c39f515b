"""Shared memoization of solved DP tables and DPNextFailure replans.

The dynamic programs are the expensive kernels of the reproduction:
``dp_makespan`` costs ``O((W/u)^3)`` and ``dp_next_failure_parallel``
``O((W/u)^2 log(W/u))`` per invocation, yet scenario sweeps call them
with the *same* inputs over and over — every trace of a DPMakespan
scenario solves one identical table, and DPNextFailure replans on
post-failure states collide across traces.

Table cache
-----------
One process-wide :class:`DPTableCache` serves
:func:`cached_dp_makespan` (the DPMakespan policy's table) and direct
calls of :func:`cached_dp_next_failure_parallel`.  Keys are **exact**:
the full scenario tuple ``(distribution, W, C, D, R, quantum, tau0)``
for DPMakespan and ``(distribution, W, C, quantum, platform-state
bytes)`` for DPNextFailure, with the distribution identified by
:meth:`repro.distributions.base.FailureDistribution.cache_key` (which
includes every parameter, and a content digest for :class:`Empirical`).
A cache hit therefore returns the bit-identical object the solver would
have produced — caching never changes results, only wall-clock.

Invalidation rules:

- the cache is keyed on *values*, not identities, so there is nothing to
  invalidate as long as distributions are immutable (they are);
- :func:`clear_cache` empties it (tests, memory pressure);
- the cache is bounded (LRU, default 256 tables) so unbounded sweeps
  cannot exhaust memory.

Worker processes of the parallel runner inherit the parent's cache at
fork time and populate their own copies afterwards; per-work-unit
hit/miss deltas are shipped back and aggregated into
``ScenarioResult.cache_hits`` / ``cache_misses``.

On a miss :func:`cached_dp_makespan` consults the persistent disk tier
(:mod:`repro.core.diskcache` — content-addressed files under
``.repro-service/solvecache/``, shared across processes, runs and
hosts) before solving cold, and publishes a fresh solve back to it.  A
disk hit is bit-identical to a cold solve (entries hold the arrays' raw
bytes), so the tier never changes results — only who pays the solve.
``configure_disk_cache(enabled=False)`` (the ``--no-disk-cache``
switch) bypasses it entirely.

Replan memo
-----------
Every DPNextFailure replan (:class:`repro.policies.dp.ReplanRequest`)
takes one path, :func:`cached_replans`: the **replan memo**, then the
disk tier, then a cold solve in
:func:`repro.core.dp_nextfailure.dp_next_failure_many`, which stacks
the solves of one lattice shape.  The lockstep lanes of the runner send
the requests of a step together; :func:`repro.simulation.engine.simulate_job`
and a policy called outside the engine send one
(:func:`cached_replan`).  Replans never reach the table cache.

The memo's key is the *quantized* platform-state signature
``(distribution, horizon, C, u, nexact, napprox, compress, quantized
ages)`` — see :func:`quantize_ages`.  The policy snaps processor ages
onto the DP's own quantum lattice *before* solving, so a memo hit
trivially returns the bit-identical ``DPNextFailureResult`` a cold
solve would produce.  Quantization makes collisions common: every
trace's fresh-platform initial plan shares one entry, truncated replans
share the same horizon and quantum, and post-failure states (one age at
zero, survivors on the lattice) collide across traces.  Counters are
surfaced as ``ScenarioResult.memo_hits`` / ``memo_misses``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CacheStats",
    "DPTableCache",
    "get_cache",
    "clear_cache",
    "cache_stats",
    "cached_dp_makespan",
    "cached_dp_next_failure_parallel",
    "get_replan_memo",
    "clear_replan_memo",
    "replan_memo_stats",
    "quantize_ages",
    "cached_replan",
    "cached_replans",
]


@dataclass(frozen=True)
class CacheStats:
    """Cumulative lookup counters of a :class:`DPTableCache`."""

    hits: int
    misses: int
    size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DPTableCache:
    """Bounded LRU table store with hit/miss accounting.

    Thread-safe; the stored values are treated as immutable (the DP
    result objects are never mutated after construction).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The cached value for ``key`` (counted as a hit), or None."""
        with self._lock:
            if key not in self._data:
                return None
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        """Store the value computed after a miss (counted as a miss)."""
        with self._lock:
            self.misses += 1
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_compute(self, key, compute):
        """Return the cached value for ``key``, computing it on a miss."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def get_or_compute_many(self, keys: list, compute_many) -> list:
        """:meth:`get_or_compute` for every key of ``keys``, in order,
        with the misses computed by one ``compute_many(positions)``
        call, which returns the values of the keys at those positions.

        A missed key repeated in ``keys`` is computed once and its
        repeats count as hits, as they would in one call after another;
        so do the counters, whenever the LRU does not evict a value
        before its repeats read it.
        """
        values = [None] * len(keys)
        first: dict = {}  # missed key -> its first position
        repeats: list[int] = []
        for pos, key in enumerate(keys):
            if key in first:
                repeats.append(pos)
                continue
            values[pos] = self.get(key)
            if values[pos] is None:
                first[key] = pos
        missed = list(first.values())
        for pos, value in zip(missed, compute_many(missed)):
            self.put(keys[pos], value)
            values[pos] = value
        for pos in repeats:
            hit = self.get(keys[pos])
            values[pos] = hit if hit is not None else values[first[keys[pos]]]
        return values

    def clear(self) -> None:
        """Drop every stored table and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss counters and current size."""
        with self._lock:
            return CacheStats(self.hits, self.misses, len(self._data))

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_CACHE = DPTableCache()


def get_cache() -> DPTableCache:
    """The process-wide DP table cache."""
    return _CACHE


def clear_cache() -> None:
    """Drop every table in the global cache and reset its counters."""
    _CACHE.clear()


def cache_stats() -> CacheStats:
    """Counters of the global cache (used for the per-work-unit deltas
    the parallel runner aggregates into ``ScenarioResult``)."""
    return _CACHE.stats()


# ----------------------------------------------------------------------
# keyed DP wrappers
# ----------------------------------------------------------------------


def cached_dp_makespan(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    dist,
    u: float,
    tau0: float = 0.0,
):
    """Memoized :func:`repro.core.dp_makespan.dp_makespan`.

    The key is the full scenario tuple, so any two calls that would
    solve the same DP share one table.  An L1 miss consults the
    persistent disk tier before solving cold, and publishes a cold
    solve back to it (:mod:`repro.core.diskcache`).
    """
    from repro.core import diskcache
    from repro.core.dp_makespan import dp_makespan

    key = (
        "dp_makespan",
        dist.cache_key(),
        float(work),
        float(checkpoint),
        float(downtime),
        float(recovery),
        float(u),
        float(tau0),
    )

    def compute():
        stored = diskcache.load_dp_makespan(key)
        if stored is not None:
            return stored
        result = dp_makespan(
            work=work,
            checkpoint=checkpoint,
            downtime=downtime,
            recovery=recovery,
            dist=dist,
            u=u,
            tau0=tau0,
        )
        diskcache.store_dp_makespan(key, result)
        return result

    return _CACHE.get_or_compute(key, compute)


def cached_dp_next_failure_parallel(
    work: float, checkpoint: float, state, u: float
):
    """Memoized :func:`repro.core.dp_nextfailure.dp_next_failure_parallel`.

    The platform state enters the key as the exact bytes of its age and
    weight vectors, so two states hit only when they are numerically
    identical — e.g. repeated direct calls on the same ages.  Policy
    replans do not come here: they go through :func:`cached_replans`.
    """
    from repro.core.dp_nextfailure import dp_next_failure_parallel

    key = (
        "dp_next_failure",
        state.dist.cache_key(),
        float(work),
        float(checkpoint),
        float(u),
        state.taus.tobytes(),
        state.weights.tobytes(),
    )
    return _CACHE.get_or_compute(
        key, lambda: dp_next_failure_parallel(work, checkpoint, state, u)
    )


# ----------------------------------------------------------------------
# cross-trace replan memo
# ----------------------------------------------------------------------

# A replan result is small — at most ``n_grid`` chunk sizes and two
# floats; the DP's choice table is not kept — while the hit rate
# compounds across traces, so the memo can afford a deeper LRU than the
# table cache.
_REPLAN_MEMO = DPTableCache(maxsize=4096)


def get_replan_memo() -> DPTableCache:
    """The process-wide DPNextFailure replan memo."""
    return _REPLAN_MEMO


def clear_replan_memo() -> None:
    """Drop every memoized replan and reset the counters."""
    _REPLAN_MEMO.clear()


def replan_memo_stats() -> CacheStats:
    """Counters of the replan memo (aggregated per work unit into
    ``ScenarioResult.memo_hits`` / ``memo_misses``)."""
    return _REPLAN_MEMO.stats()


def quantize_ages(ages: np.ndarray, resolution: float) -> np.ndarray:
    """Snap processor ages onto a uniform lattice of step ``resolution``.

    The DPNextFailure replan already discretizes work and elapsed time
    to multiples of its quantum ``u``; snapping the *input* ages to the
    same lattice (the policy default is ``resolution = u``) applies that
    discretization consistently to the state signature, which is what
    makes post-failure states collide in the replan memo.  It is applied
    before the memo lookup, so a memo hit and a cold solve follow
    identical trajectories.  ``resolution <= 0``
    disables snapping and returns the ages unchanged.
    """
    ages = np.asarray(ages, dtype=float)
    if resolution <= 0:
        return ages
    return np.round(ages / resolution) * resolution


def cached_replan(request):
    """:func:`cached_replans` of one request."""
    return cached_replans([request])[0]


def _replan_key(request) -> tuple:
    """Replan-memo (and disk-tier) key of a replan signature."""
    return (
        "replan",
        request.dist.cache_key(),
        float(request.work),
        float(request.checkpoint),
        float(request.u),
        int(request.nexact),
        int(request.napprox),
        bool(request.compress),
        request.ages.tobytes(),
    )


def cached_replans(requests: list) -> list:
    """The ``DPNextFailureResult`` of every replan request, in order,
    each shared by every caller whose (quantized) platform-state
    signature matches.

    A request (:class:`repro.policies.dp.ReplanRequest`) carries the
    replan signature as attributes (``work``, ``checkpoint``, ``dist``,
    ``ages``, ``u``, ``nexact``, ``napprox``, ``compress``) and builds
    the state to solve on with ``state()``.  ``ages`` must already be
    quantized (:func:`quantize_ages`); the memo keys on their exact
    bytes plus every parameter that shapes the solve, so a hit is
    bit-identical to a cold solve by construction.

    The levels are the replan memo, then the persistent disk tier (how
    parallel runner workers share solves: the first to solve a
    signature persists it, a later worker's memo miss loads it), then
    :func:`repro.core.dp_nextfailure.dp_next_failure_many`, which stacks
    the cold solves of one lattice shape.  Each fresh solve is stored on
    disk and in the memo.  A key repeated among the requests is looked
    up and solved once, and its repeats count as memo hits, so the
    counters read as for one request after another whenever the memo
    does not evict.
    """
    from repro.core import diskcache
    from repro.core.dp_nextfailure import dp_next_failure_many

    keys = [_replan_key(request) for request in requests]

    def load_or_solve(positions: list[int]) -> list:
        plans = [diskcache.load_replan(keys[pos]) for pos in positions]
        cold = [pos for pos, plan in zip(positions, plans) if plan is None]
        solved = dp_next_failure_many(
            [
                (requests[pos].work, requests[pos].checkpoint,
                 requests[pos].state(), requests[pos].u)
                for pos in cold
            ]
        )
        fresh = dict(zip(cold, solved))
        for pos in cold:
            diskcache.store_replan(keys[pos], fresh[pos])
        return [
            fresh[pos] if plan is None else plan
            for pos, plan in zip(positions, plans)
        ]

    return _REPLAN_MEMO.get_or_compute_many(keys, load_or_solve)
