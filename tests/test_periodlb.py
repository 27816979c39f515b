"""PeriodLB search and factor grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.policies.periodlb import best_period_search, candidate_factors
from repro.traces.generation import generate_platform_traces
from repro.units import DAY, HOUR


class TestCandidateFactors:
    def test_symmetric_grid(self):
        f = candidate_factors(n_linear=5, n_geometric=4)
        assert 1.0 in f
        for x in f:
            assert np.any(np.isclose(f, 1.0 / x, rtol=1e-12))

    def test_sorted_unique(self):
        f = candidate_factors()
        assert np.all(np.diff(f) > 0)

    def test_paper_sized_grid(self):
        # 2*(180+60)+1 candidates minus exact duplicates (e.g. 1.1 is
        # both 1+0.05*2 and 1.1^1)
        f = candidate_factors(n_linear=180, n_geometric=60)
        assert 2 * 180 + 2 * 60 - 5 <= f.size <= 2 * 180 + 2 * 60 + 1
        assert f.min() < 0.01 and f.max() > 100.0


class TestSearch:
    def test_finds_sweep_minimum(self):
        dist = Exponential(1 / DAY)
        traces = [
            generate_platform_traces(dist, 1, 100 * DAY, downtime=60.0, seed=i).for_job(1)
            for i in range(6)
        ]
        res = best_period_search(
            base_period=HOUR,  # deliberately bad base
            work_time=2 * DAY,
            job_traces=traces,
            checkpoint=600.0,
            recovery=600.0,
            dist=dist,
            platform_mtbf=DAY,
            factors=candidate_factors(n_linear=4, n_geometric=6),
        )
        idx = int(np.argmin(res.mean_makespans))
        assert res.best_period == pytest.approx(res.periods[idx])
        assert res.best_mean_makespan == pytest.approx(res.mean_makespans[idx])

    def test_search_moves_toward_optimum(self):
        """Starting from a period 4x too short, the searched best period
        should move toward the Young/Daly optimum sqrt(2 C M)."""
        import math

        dist = Exponential(1 / DAY)
        traces = [
            generate_platform_traces(dist, 1, 200 * DAY, downtime=60.0, seed=i).for_job(1)
            for i in range(10)
        ]
        opt = math.sqrt(2 * 600.0 * DAY)
        res = best_period_search(
            base_period=opt / 4,
            work_time=4 * DAY,
            job_traces=traces,
            checkpoint=600.0,
            recovery=600.0,
            dist=dist,
            platform_mtbf=DAY,
            factors=candidate_factors(n_linear=6, n_geometric=10),
        )
        assert res.best_period > opt / 3
        assert res.best_period < opt * 3


class TestOneCallSearch:
    def test_equals_per_candidate_replay(self):
        """The one-call search scores every candidate exactly as one
        ``simulate_policy_ensemble`` replay per candidate does."""
        from repro.distributions import Weibull
        from repro.policies.base import PeriodicPolicy
        from repro.simulation.batch import simulate_policy_ensemble

        dist = Weibull.from_mtbf(DAY, 0.7)
        traces = [
            generate_platform_traces(
                dist, 4, 100 * DAY, downtime=60.0, seed=i
            ).for_job(4)
            for i in range(7)
        ]
        kw = dict(
            work_time=2 * DAY,
            checkpoint=600.0,
            recovery=600.0,
            dist=dist,
            t0=3 * HOUR,
            platform_mtbf=DAY / 4,
        )
        factors = candidate_factors(n_linear=6, n_geometric=8)
        res = best_period_search(
            base_period=2 * HOUR, job_traces=traces, factors=factors, **kw
        )
        periods = np.asarray(sorted(2 * HOUR * np.asarray(factors)))
        means = []
        for period in periods:
            results = simulate_policy_ensemble(
                PeriodicPolicy(period, name="PeriodCandidate"),
                kw["work_time"],
                traces,
                kw["checkpoint"],
                kw["recovery"],
                dist,
                t0=kw["t0"],
                platform_mtbf=kw["platform_mtbf"],
            )
            means.append(float(np.mean([r.makespan for r in results])))
        assert np.array_equal(res.periods, periods)
        assert list(res.mean_makespans) == means
        assert res.best_period == float(periods[int(np.argmin(means))])
