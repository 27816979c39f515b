"""DP table cache: hits, key separation, bounds, identity with the
uncached reference solves, and distribution cache keys."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import (
    DPTableCache,
    cache_stats,
    cached_dp_makespan,
    cached_dp_next_failure_parallel,
    clear_cache,
    get_cache,
)
from repro.core.dp_makespan import dp_makespan
from repro.core.state import PlatformState
from repro.distributions import Empirical, Exponential, Gamma, Weibull
from repro.distributions.minimum import MinOfIID
from repro.units import DAY, HOUR


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty global cache."""
    clear_cache()
    yield
    clear_cache()


class TestDPTableCache:
    def test_hit_returns_same_object(self):
        cache = DPTableCache()
        a = cache.get_or_compute(("k",), lambda: object())
        b = cache.get_or_compute(("k",), lambda: object())
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = DPTableCache(maxsize=2)
        cache.get_or_compute(1, lambda: "a")
        cache.get_or_compute(2, lambda: "b")
        cache.get_or_compute(1, lambda: "a")  # refresh 1
        cache.get_or_compute(3, lambda: "c")  # evicts 2
        assert len(cache) == 2
        calls = []
        cache.get_or_compute(2, lambda: calls.append(1) or "b2")
        assert calls  # 2 was recomputed
        cache.get_or_compute(3, lambda: (_ for _ in ()).throw(AssertionError))

    def test_clear_resets(self):
        cache = DPTableCache()
        cache.get_or_compute(1, lambda: "a")
        cache.get_or_compute(1, lambda: "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 0 and cache.stats().misses == 0

    def test_stats_hit_rate(self):
        cache = DPTableCache()
        cache.get_or_compute(1, lambda: "a")
        cache.get_or_compute(1, lambda: "a")
        s = cache.stats()
        assert s.lookups == 2 and s.hit_rate == pytest.approx(0.5)

    def test_len_takes_the_table_lock(self, monkeypatch):
        """len() reads the table under the same lock writers hold, so a
        concurrent eviction can never be observed mid-mutation."""
        cache = DPTableCache()
        cache.get_or_compute(1, lambda: "a")
        observed = []
        original = dict.__len__

        class Spy(dict):
            def __len__(self):
                observed.append(cache._lock.locked())
                return original(self)

        cache._data = Spy(cache._data)
        assert len(cache) == 1
        assert observed == [True]


class TestCachedDPMakespan:
    def test_second_call_hits(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        kw = dict(work=12 * HOUR, checkpoint=600.0, downtime=60.0,
                  recovery=600.0, dist=dist, u=3600.0)
        a = cached_dp_makespan(**kw)
        before = cache_stats()
        b = cached_dp_makespan(**kw)
        after = cache_stats()
        assert b is a
        assert after.hits == before.hits + 1

    def test_matches_uncached_solver(self):
        dist = Exponential.from_mtbf(DAY)
        kw = dict(work=12 * HOUR, checkpoint=600.0, downtime=60.0,
                  recovery=600.0, dist=dist, u=3600.0)
        cached = cached_dp_makespan(**kw)
        direct = dp_makespan(**kw)
        assert cached.expected_makespan == direct.expected_makespan
        assert cached.first_chunk == direct.first_chunk

    def test_no_key_collision_across_distributions(self):
        """Same (W, C, D, R, u) but different failure laws — including
        two Empirical datasets with equal n and near-equal mean — must
        resolve to different tables."""
        rng = np.random.default_rng(0)
        samples_a = rng.exponential(DAY, size=500)
        samples_b = np.sort(samples_a)[::-1].copy()
        samples_b[0] *= 1.0000001  # same n, nearly identical summary
        dists = [
            Exponential.from_mtbf(DAY),
            Weibull.from_mtbf(DAY, 0.7),
            Weibull.from_mtbf(DAY, 0.9999),
            Gamma.from_mtbf(DAY, 0.6),
            Empirical(samples_a),
            Empirical(samples_b),
        ]
        keys = {d.cache_key() for d in dists}
        assert len(keys) == len(dists)
        kw = dict(work=6 * HOUR, checkpoint=600.0, downtime=60.0,
                  recovery=600.0, u=3600.0)
        results = [cached_dp_makespan(dist=d, **kw) for d in dists]
        assert cache_stats().misses == len(dists)  # no spurious hits
        assert len({id(r) for r in results}) == len(results)

    def test_min_of_iid_key_includes_p(self):
        base = Weibull.from_mtbf(DAY, 0.7)
        assert MinOfIID(base, 4).cache_key() != MinOfIID(base, 8).cache_key()
        assert MinOfIID(base, 4).cache_key() != base.cache_key()

    def test_parameter_changes_miss(self):
        dist = Exponential.from_mtbf(DAY)
        kw = dict(work=6 * HOUR, checkpoint=600.0, downtime=60.0,
                  recovery=600.0, dist=dist, u=3600.0)
        cached_dp_makespan(**kw)
        cached_dp_makespan(**{**kw, "checkpoint": 300.0})
        cached_dp_makespan(**{**kw, "u": 1800.0})
        assert cache_stats().misses == 3
        assert cache_stats().hits == 0


class TestCachedDPNextFailure:
    def test_identical_state_hits(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        state = PlatformState(np.zeros(4), dist)
        a = cached_dp_next_failure_parallel(6 * HOUR, 600.0, state, 900.0)
        b = cached_dp_next_failure_parallel(
            6 * HOUR, 600.0, PlatformState(np.zeros(4), dist), 900.0
        )
        assert b is a
        assert cache_stats().hits == 1

    def test_different_ages_miss(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        cached_dp_next_failure_parallel(
            6 * HOUR, 600.0, PlatformState(np.zeros(4), dist), 900.0
        )
        cached_dp_next_failure_parallel(
            6 * HOUR, 600.0, PlatformState(np.full(4, 60.0), dist), 900.0
        )
        assert cache_stats().misses == 2 and cache_stats().hits == 0


class TestEscapeHatch:
    """The cache against its reference: the uncached solver."""

    def test_configure_disable_enable(self):
        dist = Exponential.from_mtbf(DAY)
        kw = dict(work=6 * HOUR, checkpoint=600.0, downtime=60.0,
                  recovery=600.0, dist=dist, u=3600.0)
        a = dp_makespan(**kw)
        b = dp_makespan(**kw)
        assert a is not b  # the reference recomputes every call
        c = cached_dp_makespan(**kw)
        d = cached_dp_makespan(**kw)
        assert d is c
        assert cache_stats().hits == 1
        assert c.expected_makespan == a.expected_makespan
        assert c.first_chunk == a.first_chunk
        assert np.array_equal(c._c_pre, a._c_pre)

    def test_no_cache_flag_reaches_runner_counters(self, monkeypatch):
        """A cached run equals the uncached reference run; only the
        cached run touches the table cache."""
        from repro.cluster.models import ConstantOverhead, Platform
        from repro.policies import DPMakespanPolicy
        from repro.simulation.runner import run_scenarios

        from .conftest import bypass_solve_caches

        platform = Platform(
            p=2,
            dist=Weibull.from_mtbf(12 * HOUR, 0.7),
            downtime=60.0,
            overhead=ConstantOverhead(600.0),
        )

        def run():
            return run_scenarios(
                [DPMakespanPolicy(n_grid=48)],
                platform,
                work_time=DAY,
                n_traces=3,
                horizon=100 * DAY,
                seed=1,
                include_period_lb=False,
                jobs=1,
            )

        with monkeypatch.context() as mp:
            bypass_solve_caches(mp)
            reference = run()
        assert reference.cache_hits == reference.cache_misses == 0
        res = run()
        assert res.cache_misses >= 1
        assert res.cache_hits >= 2  # one solve shared by the 3 traces
        assert np.array_equal(
            res.makespans["DPMakespan"], reference.makespans["DPMakespan"]
        )

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            DPTableCache(maxsize=0)
