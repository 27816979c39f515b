"""Shared memoization of solved DP chunking tables.

The dynamic programs are the expensive kernels of the reproduction:
``dp_makespan`` costs ``O((W/u)^3)`` and ``dp_next_failure_parallel``
``O((W/u)^2 log(W/u))`` per invocation, yet scenario sweeps call them
with the *same* inputs over and over — every trace of a DPMakespan
scenario solves one identical table, and repeated scenarios (PeriodLB
sweeps, ablations, benchmark re-runs within a process) re-derive tables
already solved.

This module provides one process-wide :class:`DPTableCache` plus keyed
wrappers for both DPs.  Keys are **exact**: the full scenario tuple
``(distribution, W, C, D, R, quantum, tau0)`` for DPMakespan and
``(distribution, W, C, quantum, platform-state bytes)`` for
DPNextFailure, with the distribution identified by
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

Both stores are **L1** of a two-level hierarchy: on an L1 miss the
keyed wrappers consult the persistent disk tier
(:mod:`repro.core.diskcache` — content-addressed files under
``.repro-service/solvecache/``, shared across processes, runs and
hosts) before solving cold, and publish fresh solves back to it.  A
disk hit is bit-identical to a cold solve (NumPy's binary format
round-trips the tables exactly), so the tier never changes results —
only who pays the solve.  ``configure_disk_cache(enabled=False)`` (the
``--no-disk-cache`` / ``REPRO_BENCH_NO_DISKCACHE`` switches) bypasses it
entirely.

Replan memo
-----------
A second process-wide store, the **replan memo**, sits one level above
the table cache: it memoizes whole
:meth:`repro.policies.dp.DPNextFailurePolicy._replan` solves across
traces, sweeps and runner workers.  Its key is the *quantized*
platform-state signature ``(distribution, horizon, C, u, nexact,
napprox, compress, quantized ages)`` — see :func:`quantize_ages`.  The
policy snaps processor ages onto the DP's own quantum lattice *before*
solving, so a memo hit trivially returns the bit-identical
``DPNextFailureResult`` a cold solve would produce.
Quantization makes collisions common: every trace's fresh-platform
initial plan shares one entry, truncated replans share the same horizon
and quantum, and post-failure states (one age at zero, survivors on the
lattice) collide across traces.  Counters are surfaced as
``ScenarioResult.memo_hits`` / ``memo_misses``.
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
    "configure_cache",
    "clear_cache",
    "cache_stats",
    "cached_dp_makespan",
    "cached_dp_next_failure_parallel",
    "get_replan_memo",
    "configure_replan_memo",
    "clear_replan_memo",
    "replan_memo_stats",
    "quantize_ages",
    "cached_replan",
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

    def get_or_compute(self, key, compute):
        """Return the cached value for ``key``, computing it on a miss."""
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
        value = compute()
        with self._lock:
            self.misses += 1
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every stored table and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def snapshot_keys(self) -> frozenset:
        """The current key set (cheap; used to compute export deltas)."""
        with self._lock:
            return frozenset(self._data)

    def export_entries(self, exclude: frozenset = frozenset()) -> list:
        """``(key, value)`` pairs not in ``exclude`` — the delta a
        runner worker ships back to the parent at work-unit exit."""
        with self._lock:
            return [
                (key, value)
                for key, value in self._data.items()
                if key not in exclude
            ]

    def merge_entries(self, items) -> int:
        """Insert foreign ``(key, value)`` pairs (missing keys only);
        returns how many were new.  Counters are untouched — a merge is
        transport, not a lookup."""
        added = 0
        with self._lock:
            for key, value in items:
                if key not in self._data:
                    self._data[key] = value
                    self._data.move_to_end(key)
                    added += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return added

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


def configure_cache(maxsize: int | None = None) -> None:
    """Adjust the global cache's bound."""
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        _CACHE.maxsize = int(maxsize)


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
    identical — e.g. the fresh-platform plan every trace of a ``t0 = 0``
    scenario starts from, or repeated sweeps over the same ages.
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


def configure_replan_memo(maxsize: int | None = None) -> None:
    """Adjust the global replan memo's bound (mirrors
    :func:`configure_cache`)."""
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        _REPLAN_MEMO.maxsize = int(maxsize)


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


def cached_replan(
    work: float,
    checkpoint: float,
    dist,
    ages: np.ndarray,
    u: float,
    nexact: int,
    napprox: int,
    compress: bool,
    solve,
):
    """Memoized full replan: returns ``solve()``'s
    ``DPNextFailureResult``, shared by every caller whose (quantized)
    platform-state signature matches.

    ``ages`` must already be quantized by the caller
    (:func:`quantize_ages`); the memo keys on their exact bytes plus
    every parameter that shapes the solve.  Because the key captures the
    full input of ``solve`` and results are immutable, a hit is
    bit-identical to a cold solve by construction.

    An L1 (memo) miss consults the persistent disk tier before calling
    ``solve`` — this is how parallel runner workers share one memo:
    the first worker to solve a signature persists it, every later
    worker's L1 miss becomes a disk hit instead of a duplicate solve.
    """
    from repro.core import diskcache

    key = (
        "replan",
        dist.cache_key(),
        float(work),
        float(checkpoint),
        float(u),
        int(nexact),
        int(napprox),
        bool(compress),
        ages.tobytes(),
    )

    def compute():
        stored = diskcache.load_replan(key)
        if stored is not None:
            return stored
        result = solve()
        diskcache.store_replan(key, result)
        return result

    return _REPLAN_MEMO.get_or_compute(key, compute)
