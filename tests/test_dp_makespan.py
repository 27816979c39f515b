"""DPMakespan (Algorithm 1) against Theorem 1 and sanity invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dp_makespan import dp_makespan, expected_trec_general
from repro.core.theory import expected_makespan_optimal, expected_trec
from repro.distributions import Exponential, Weibull
from repro.units import DAY, HOUR
from tests import dpmakespan_oracle


class TestTrecGeneral:
    def test_matches_exponential_closed_form(self):
        lam, d, r = 1 / DAY, 60.0, 600.0
        assert expected_trec_general(Exponential(lam), d, r) == pytest.approx(
            expected_trec(lam, d, r), rel=1e-4
        )

    def test_weibull_finite(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        trec = expected_trec_general(dist, 60.0, 600.0)
        assert trec > 660.0  # at least D + R
        assert np.isfinite(trec)


class TestAgainstTheorem1:
    @pytest.mark.parametrize("mtbf_hours", [2, 8, 24])
    def test_exponential_value_matches(self, mtbf_hours):
        lam = 1 / (mtbf_hours * HOUR)
        work, c, d, r = 6 * HOUR, 600.0, 60.0, 600.0
        res = dp_makespan(work, c, d, r, Exponential(lam), u=300.0)
        theory = expected_makespan_optimal(lam, work, c, d, r)
        # quantization: DP is an upper bound within a few percent
        assert res.expected_makespan >= theory.expected_makespan * (1 - 1e-9)
        assert res.expected_makespan == pytest.approx(
            theory.expected_makespan, rel=0.03
        )

    def test_first_chunk_near_optimal(self):
        lam = 1 / (2 * HOUR)
        work, c, d, r = 6 * HOUR, 600.0, 60.0, 600.0
        res = dp_makespan(work, c, d, r, Exponential(lam), u=300.0)
        theory = expected_makespan_optimal(lam, work, c, d, r)
        assert res.first_chunk == pytest.approx(theory.chunk_size, abs=2 * 300.0)

    def test_refining_quantum_improves_value(self):
        lam = 1 / (4 * HOUR)
        work, c, d, r = 6 * HOUR, 600.0, 60.0, 600.0
        coarse = dp_makespan(work, c, d, r, Exponential(lam), u=1200.0)
        fine = dp_makespan(work, c, d, r, Exponential(lam), u=300.0)
        assert fine.expected_makespan <= coarse.expected_makespan * (1 + 1e-9)


class TestInvariants:
    def test_value_exceeds_failure_free_time(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        work, c = 6 * HOUR, 600.0
        res = dp_makespan(work, c, 60.0, 600.0, dist, u=600.0)
        assert res.expected_makespan > work + c

    def test_reliable_limit(self):
        dist = Exponential(1e-12)
        work, c = 6 * HOUR, 600.0
        res = dp_makespan(work, c, 60.0, 600.0, dist, u=600.0)
        # near-zero failure rate: one chunk + one checkpoint
        assert res.first_chunk == pytest.approx(work)
        assert res.expected_makespan == pytest.approx(work + c, rel=1e-3)

    def test_weibull_age_zero_vs_aged_start(self):
        """For k<1, starting with an aged processor (tau0 > 0) can only
        help: the expected makespan must not increase."""
        dist = Weibull.from_mtbf(DAY, 0.7)
        work, c, d, r = 4 * HOUR, 600.0, 60.0, 600.0
        fresh = dp_makespan(work, c, d, r, dist, u=600.0, tau0=0.0)
        aged = dp_makespan(work, c, d, r, dist, u=600.0, tau0=2 * DAY)
        assert aged.expected_makespan <= fresh.expected_makespan * (1 + 1e-9)

    def test_start_age_past_the_log_floor(self):
        """Exponential lifetimes are memoryless, so ``tau0`` cannot matter,
        even where ``log S(tau0) = -800`` lies below the -700 floor.  An
        absolute floor read every attempt there as certain success."""
        rate = 1 / (2 * HOUR)
        dist = Exponential(rate)
        args = (6 * HOUR, 600.0, 60.0, 600.0, dist)
        fresh = dp_makespan(*args, u=600.0, tau0=0.0)
        aged = dp_makespan(*args, u=600.0, tau0=800 / rate)
        assert aged.first_chunk == fresh.first_chunk
        assert aged.expected_makespan == pytest.approx(
            fresh.expected_makespan, rel=1e-9
        )

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            dp_makespan(HOUR, 600.0, 60.0, 600.0, Exponential(1.0), u=-1.0)


class TestPolicyQueries:
    def test_chunk_for_start_state(self):
        dist = Exponential(1 / (4 * HOUR))
        res = dp_makespan(6 * HOUR, 600.0, 60.0, 600.0, dist, u=600.0)
        assert res.chunk_for(6 * HOUR, 0.0, failed_before=False) == pytest.approx(
            res.first_chunk
        )

    def test_chunk_for_zero_work(self):
        dist = Exponential(1 / (4 * HOUR))
        res = dp_makespan(6 * HOUR, 600.0, 60.0, 600.0, dist, u=600.0)
        assert res.chunk_for(0.0, 0.0, failed_before=False) == 0.0

    def test_chunk_for_post_failure(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        res = dp_makespan(6 * HOUR, 600.0, 60.0, 600.0, dist, u=600.0)
        w = res.chunk_for(3 * HOUR, 600.0, failed_before=True)
        assert 0 < w <= 3 * HOUR

    def test_memoryless_chunks_independent_of_plane(self):
        """For Exponential failures the pre- and post-failure policies
        must coincide (memorylessness)."""
        dist = Exponential(1 / (4 * HOUR))
        res = dp_makespan(6 * HOUR, 600.0, 60.0, 600.0, dist, u=600.0)
        for remaining in (HOUR, 3 * HOUR, 6 * HOUR):
            pre = res.chunk_for(remaining, 0.0, failed_before=False)
            post = res.chunk_for(remaining, 600.0, failed_before=True)
            assert pre == pytest.approx(post)


class TestVectorizedSweep:
    """The blocked 2-D ``(y, i)`` sweep must build tables identical to
    the ``y``-at-a-time reference loop of ``tests/dpmakespan_oracle.py``
    — same float ops elementwise, same first-minimum tie-breaking."""

    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(1 / (10 * HOUR)),
            Weibull.from_mtbf(10 * HOUR, 0.7),
            Weibull.from_mtbf(5 * HOUR, 0.5),
        ],
        ids=["exp", "weibull07", "weibull05"],
    )
    @pytest.mark.parametrize("tau0", [0.0, 1800.0])
    def test_tables_identical(self, dist, tau0):
        work, checkpoint, downtime, recovery = 20 * HOUR, 600.0, 60.0, 600.0
        u = max(checkpoint, work / 48)
        vec = dp_makespan(work, checkpoint, downtime, recovery, dist, u, tau0)
        loop = dpmakespan_oracle.dp_makespan(
            work, checkpoint, downtime, recovery, dist, u, tau0
        )
        assert vec.expected_makespan == loop.expected_makespan
        assert vec.first_chunk == loop.first_chunk
        assert np.array_equal(vec._v_pre, loop._v_pre)
        assert np.array_equal(vec._c_pre, loop._c_pre)
        assert np.array_equal(vec._v_post, loop._v_post)
        assert np.array_equal(vec._c_post, loop._c_post)

    def test_small_block_size_still_identical(self, monkeypatch):
        """Blocking must not change results at any block boundary."""
        import importlib

        # repro.core re-exports the function under the same name, so a
        # plain ``import ... as`` would grab the function, not the module
        mod = importlib.import_module("repro.core.dp_makespan")

        dist = Weibull.from_mtbf(10 * HOUR, 0.7)
        reference = dpmakespan_oracle.dp_makespan(
            10 * HOUR, 600.0, 60.0, 600.0, dist, 1500.0
        )
        monkeypatch.setattr(mod, "_Y_BLOCK_ELEMS", 7)
        blocked = dp_makespan(10 * HOUR, 600.0, 60.0, 600.0, dist, 1500.0)
        assert np.array_equal(blocked._v_pre, reference._v_pre)
        assert np.array_equal(blocked._c_pre, reference._c_pre)
        assert np.array_equal(blocked._v_post, reference._v_post)
        assert np.array_equal(blocked._c_post, reference._c_post)
