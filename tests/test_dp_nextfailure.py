"""DPNextFailure: optimality, consistency with Proposition 3, behavior."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.dp_nextfailure import (
    dp_next_failure,
    dp_next_failure_parallel,
    expected_work_of_schedule,
)
from repro.core.state import PlatformState
from repro.distributions import Empirical, Exponential, Weibull
from repro.units import DAY, HOUR


def brute_force_best(work_quanta: int, u: float, checkpoint: float, state):
    """Enumerate every composition of `work_quanta` into chunks and score
    with the exact Proposition-3 objective."""
    best_val, best_chunks = -1.0, None
    # compositions of n: choose cut points
    n = work_quanta
    for cuts in itertools.product([0, 1], repeat=n - 1):
        chunks, size = [], 1
        for c in cuts:
            if c:
                chunks.append(size * u)
                size = 1
            else:
                size += 1
        chunks.append(size * u)
        val = expected_work_of_schedule(chunks, checkpoint, state)
        if val > best_val:
            best_val, best_chunks = val, chunks
    return best_val, best_chunks


class TestOptimality:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(1 / (2 * HOUR)),
            Weibull.from_mtbf(2 * HOUR, 0.7),
            Weibull.from_mtbf(2 * HOUR, 1.5),
        ],
        ids=["exp", "weibull0.7", "weibull1.5"],
    )
    @pytest.mark.parametrize("tau", [0.0, HOUR])
    def test_matches_brute_force(self, dist, tau):
        u, c, n = 900.0, 600.0, 9
        state = PlatformState([tau], dist)
        result = dp_next_failure(n * u, c, dist, u=u, tau=tau)
        best_val, _ = brute_force_best(n, u, c, state)
        assert result.expected_work == pytest.approx(best_val, rel=1e-9)

    def test_parallel_matches_brute_force(self):
        dist = Weibull.from_mtbf(DAY, 0.6)
        state = PlatformState([0.0, HOUR, 5 * HOUR], dist)
        u, c, n = 900.0, 600.0, 8
        result = dp_next_failure_parallel(n * u, c, state, u=u)
        best_val, _ = brute_force_best(n, u, c, state)
        assert result.expected_work == pytest.approx(best_val, rel=1e-9)


class TestConsistency:
    def test_value_matches_schedule_evaluation(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        state = PlatformState([HOUR], dist)
        r = dp_next_failure_parallel(12 * HOUR, 600.0, state, u=1800.0)
        assert r.expected_work == pytest.approx(
            expected_work_of_schedule(r.chunks, 600.0, state), rel=1e-9
        )

    def test_chunks_cover_work(self):
        dist = Exponential(1 / DAY)
        r = dp_next_failure(10 * HOUR, 600.0, dist, u=600.0)
        assert r.chunks.sum() == pytest.approx(10 * HOUR)
        assert np.all(r.chunks > 0)

    def test_expected_work_below_total(self):
        dist = Exponential(1 / DAY)
        r = dp_next_failure(10 * HOUR, 600.0, dist, u=600.0)
        assert 0 < r.expected_work < 10 * HOUR

    def test_checkpoint_not_rounded_to_quantum(self):
        """The lattice keeps C exact even when u >> C: the DP must not
        behave as if checkpoints cost a whole quantum."""
        dist = Exponential(1 / (6 * HOUR))
        work = 12 * HOUR
        coarse = dp_next_failure(work, 60.0, dist, u=work / 24)
        fine = dp_next_failure(work, 60.0, dist, u=work / 96)
        state = PlatformState([0.0], dist)
        v_coarse = expected_work_of_schedule(coarse.chunks, 60.0, state)
        v_fine = expected_work_of_schedule(fine.chunks, 60.0, state)
        assert v_coarse > 0.97 * v_fine


class TestAdaptivity:
    def test_aged_weibull_allows_longer_first_chunk(self):
        """k < 1: an old processor is safer, so the optimal first chunk
        grows with the age — the adaptivity Young/Daly lack."""
        dist = Weibull.from_mtbf(DAY, 0.7)
        young = dp_next_failure(12 * HOUR, 600.0, dist, u=600.0, tau=0.0)
        old = dp_next_failure(12 * HOUR, 600.0, dist, u=600.0, tau=5 * DAY)
        assert old.first_chunk > young.first_chunk

    def test_exponential_age_irrelevant(self):
        dist = Exponential(1 / DAY)
        a = dp_next_failure(12 * HOUR, 600.0, dist, u=600.0, tau=0.0)
        b = dp_next_failure(12 * HOUR, 600.0, dist, u=600.0, tau=3 * DAY)
        assert np.allclose(a.chunks, b.chunks)
        assert a.expected_work == pytest.approx(b.expected_work, rel=1e-12)

    def test_compressed_state_matches_exact(self):
        dist = Weibull.from_mtbf(125 * 365 * DAY, 0.7)
        rng = np.random.default_rng(0)
        taus = rng.uniform(0, 365 * DAY, size=3000)
        exact = PlatformState(taus, dist)
        approx = exact.compress(10, 100)
        re = dp_next_failure_parallel(6 * HOUR, 600.0, exact, u=900.0)
        ra = dp_next_failure_parallel(6 * HOUR, 600.0, approx, u=900.0)
        assert ra.expected_work == pytest.approx(re.expected_work, rel=1e-3)

    def test_higher_failure_rate_means_shorter_chunks(self):
        work, c, u = 12 * HOUR, 600.0, 300.0
        fast = dp_next_failure(work, c, Exponential(1 / (2 * HOUR)), u=u)
        slow = dp_next_failure(work, c, Exponential(1 / (2 * DAY)), u=u)
        assert max(fast.chunks) < max(slow.chunks)

    def test_plan_survives_a_start_state_below_the_floor(self):
        """One very old processor (Weibull k < 1: negligible hazard, but
        log-survival -800 at its age) must not change the plan.  With a
        floor at an absolute -700 the whole survival table flattened to
        ties and the plan degraded to 77 one-quantum chunks."""
        dist = Weibull(1e6, 0.7)
        ages = np.linspace(1e4, 5e4, 20)
        work, c, u = 2e5, 600.0, 2e5 / 96
        base = dp_next_failure_parallel(work, c, PlatformState(ages, dist), u=u)
        assert np.array_equal(base.chunks[:3] / u, [2.0, 3.0, 3.0])
        assert base.chunks.size == 37
        old = 1e6 * 800 ** (1 / 0.7)
        assert float(dist.logsf(old)) == pytest.approx(-800.0)
        aged = dp_next_failure_parallel(
            work, c, PlatformState(np.append(ages, old), dist), u=u
        )
        assert np.array_equal(aged.chunks, base.chunks)


class TestEmpiricalDistribution:
    def test_runs_on_empirical(self):
        rng = np.random.default_rng(1)
        d = Empirical(rng.weibull(0.6, 5000) * DAY)
        state = PlatformState(np.full(16, HOUR), d)
        r = dp_next_failure_parallel(6 * HOUR, 600.0, state, u=900.0)
        assert np.isfinite(r.expected_work)
        assert r.chunks.sum() == pytest.approx(6 * HOUR)


class TestValidation:
    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            dp_next_failure(HOUR, 600.0, Exponential(1.0), u=0.0)

    def test_empty_schedule_evaluates_to_zero(self):
        state = PlatformState([0.0], Exponential(1 / DAY))
        assert expected_work_of_schedule([], 600.0, state) == 0.0
