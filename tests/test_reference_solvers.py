"""Reference solvers, and the DPs verified against them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dp_makespan import dp_makespan
from repro.core.dp_nextfailure import dp_next_failure
from repro.core.state import PlatformState
from repro.core.theory import expected_makespan_optimal
from repro.distributions import Deterministic, Exponential, Weibull
from repro.units import DAY, HOUR

from .bruteforce_oracle import (
    brute_force_makespan,
    brute_force_next_failure,
    enumerate_chunkings,
    expected_makespan_of_chunks,
)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_chunkings(1, 10.0))) == 1
        assert len(list(enumerate_chunkings(5, 10.0))) == 16

    def test_all_cover_work(self):
        for chunks in enumerate_chunkings(6, 10.0):
            assert sum(chunks) == pytest.approx(60.0)
            assert all(c > 0 for c in chunks)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next(enumerate_chunkings(0, 10.0))


class TestMakespanReference:
    def test_single_chunk_formula(self):
        """One chunk: E[T] = (1/lam + Trec)(e^{lam(W+C)} - 1)."""
        lam, w, c, d, r = 1 / HOUR, 2 * HOUR, 600.0, 60.0, 600.0
        from repro.core.theory import expected_trec

        direct = (1 / lam + expected_trec(lam, d, r)) * (
            np.expm1(lam * (w + c))
        )
        assert expected_makespan_of_chunks([w], lam, c, d, r) == pytest.approx(direct)

    def test_brute_force_agrees_with_theorem1_shape(self):
        """The enumerated optimum must use (near-)equal chunks and match
        Theorem 1's value when K* chunks fit the grid."""
        lam, c, d, r = 1 / (4 * HOUR), 600.0, 60.0, 600.0
        n, u = 8, 1800.0
        best_val, best_chunks = brute_force_makespan(n, u, lam, c, d, r)
        theory = expected_makespan_optimal(lam, n * u, c, d, r)
        if n % theory.num_chunks == 0:
            assert best_val == pytest.approx(theory.expected_makespan, rel=1e-12)
        assert np.ptp(best_chunks) <= u + 1e-9  # equal-ish chunks

    def test_dp_makespan_matches_brute_force(self):
        lam, c, d, r = 1 / (3 * HOUR), 600.0, 60.0, 600.0
        n, u = 10, 1200.0
        res = dp_makespan(n * u, c, d, r, Exponential(lam), u=u)
        # the DP quantizes C to the grid and integrates E[Tlost] by
        # trapezoid; compare against the reference at the same quantized
        # C with a tolerance covering the quadrature error
        c_q = max(1, round(c / u)) * u
        best_q, best_chunks = brute_force_makespan(n, u, lam, c_q, d, r)
        assert res.expected_makespan == pytest.approx(best_q, rel=5e-3)
        # decision-level agreement: the DP's chunk sequence is one of
        # the enumerated optima (memoryless => multiset is what matters)
        dp_chunks = []
        remaining = n * u
        while remaining > 1e-9:
            w = res.chunk_for(remaining, 0.0, failed_before=False)
            dp_chunks.append(w)
            remaining -= w
        assert sorted(dp_chunks) == pytest.approx(sorted(best_chunks))


class TestNextFailureReference:
    def test_dp_matches_brute_force_weibull(self):
        dist = Weibull.from_mtbf(5 * HOUR, 0.6)
        state = PlatformState([HOUR], dist)
        n, u, c = 10, 900.0, 600.0
        best_val, _ = brute_force_next_failure(n, u, c, state)
        res = dp_next_failure(n * u, c, dist, u=u, tau=HOUR)
        assert res.expected_work == pytest.approx(best_val, rel=1e-9)


class TestDeterministicDistribution:
    def test_survival_step(self):
        d = Deterministic(100.0)
        assert d.sf(50.0) == 1.0
        assert d.sf(100.0) == 1.0
        assert d.sf(100.1) == 0.0

    def test_tlost_exact(self):
        d = Deterministic(100.0)
        assert d.expected_tlost(60.0, tau=50.0) == pytest.approx(50.0)
        assert d.expected_tlost(30.0, tau=50.0) == 0.0

    def test_engine_with_deterministic_failures(self):
        """Failures exactly every 1000 s (+downtime): a 400-s-chunk
        policy with C=100 fits one attempt per window."""
        from repro.policies.base import PeriodicPolicy
        from repro.simulation import simulate_job
        from repro.traces.generation import generate_platform_traces

        d = Deterministic(1000.0)
        tr = generate_platform_traces(d, 1, 50_000.0, downtime=50.0, seed=0).for_job(1)
        res = simulate_job(PeriodicPolicy(400.0), 1600.0, tr, 100.0, 80.0, d)
        assert res.completed
        # failures at 1000, 2050, 3100, ...
        assert res.n_failures >= 1

    def test_dp_next_failure_stops_before_the_cliff(self):
        """With a known failure at t=1000 and C=100, planning more than
        900 s of work in one chunk is worthless; the DP must keep the
        pre-cliff chunk+checkpoint within the window."""
        d = Deterministic(1000.0)
        res = dp_next_failure(1800.0, 100.0, d, u=100.0, tau=0.0)
        assert res.first_chunk + 100.0 <= 1000.0 + 1e-9
        assert res.expected_work >= 800.0  # at least the window's worth
