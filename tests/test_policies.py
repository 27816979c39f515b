"""Checkpointing policies: period formulas and adaptive behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.theory import optimal_num_chunks
from repro.distributions import Exponential, Weibull
from repro.policies import (
    Bouguerra,
    DalyHigh,
    DalyLow,
    DPMakespanPolicy,
    DPNextFailurePolicy,
    Liu,
    OptExp,
    PolicyInfeasibleError,
    Young,
)
from repro.simulation import simulate_job
from repro.simulation.engine import JobContext
from repro.traces.generation import PlatformTraces
from repro.units import DAY, HOUR, YEAR


def make_ctx(
    dist,
    n_units=1,
    checkpoint=600.0,
    recovery=600.0,
    downtime=60.0,
    work_time=8 * DAY,
    ages=None,
):
    mtbf = (dist.mean() + downtime) / n_units
    ages = np.zeros(n_units) if ages is None else np.asarray(ages, dtype=float)
    return JobContext(
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=downtime,
        dist=dist,
        work_time=work_time,
        n_units=n_units,
        platform_mtbf=mtbf,
        t0=0.0,
        time=float(ages.max()),
        _lifetime_start=float(ages.max()) - ages,
    )


class TestPeriodFormulas:
    def test_young(self):
        ctx = make_ctx(Exponential.from_mtbf(DAY))
        pol = Young()
        pol.setup(ctx)
        assert pol.period == pytest.approx(
            math.sqrt(2 * 600.0 * ctx.platform_mtbf)
        )

    def test_dalylow_adds_d_and_r(self):
        ctx = make_ctx(Exponential.from_mtbf(DAY))
        y, d = Young(), DalyLow()
        y.setup(ctx)
        d.setup(ctx)
        assert d.period > y.period

    def test_dalyhigh_formula(self):
        ctx = make_ctx(Exponential.from_mtbf(DAY))
        pol = DalyHigh()
        pol.setup(ctx)
        c, m = 600.0, ctx.platform_mtbf
        ratio = c / (2 * m)
        expected = (
            math.sqrt(2 * c * m) * (1 + math.sqrt(ratio) / 3 + ratio / 9) - c
        )
        assert pol.period == pytest.approx(expected)

    def test_dalyhigh_saturates_at_mtbf(self):
        # C >= 2M triggers Daly's w = M fallback (platform MTBF 240+60)
        ctx = make_ctx(Exponential.from_mtbf(240.0), checkpoint=600.0)
        pol = DalyHigh()
        pol.setup(ctx)
        assert pol.period == pytest.approx(ctx.platform_mtbf)

    def test_optexp_matches_proposition5(self):
        dist = Exponential.from_mtbf(125 * YEAR)
        ctx = make_ctx(dist, n_units=1024, work_time=8 * DAY)
        pol = OptExp()
        pol.setup(ctx)
        lam = 1.0 / ctx.platform_mtbf
        k = optimal_num_chunks(lam, 8 * DAY, 600.0)
        assert pol.period == pytest.approx(8 * DAY / k)

    def test_periodic_chunk_clamped_to_remaining(self):
        ctx = make_ctx(Exponential.from_mtbf(DAY))
        pol = Young()
        pol.setup(ctx)
        assert pol.next_chunk(10.0, ctx) == 10.0


class TestBouguerra:
    def test_exponential_close_to_young_order(self):
        """Under Exponential failures the renewal model is exact, so the
        period must land near the Young/Daly optimum."""
        ctx = make_ctx(Exponential.from_mtbf(DAY))
        b, y = Bouguerra(), Young()
        b.setup(ctx)
        y.setup(ctx)
        assert 0.5 * y.period < b.period < 2.0 * y.period

    def test_weibull_overcheckpoints(self):
        """k < 1 + rejuvenation assumption => far-too-short periods."""
        dist = Weibull.from_mtbf(125 * YEAR, 0.7)
        ctx = make_ctx(dist, n_units=1024, work_time=8 * DAY)
        b, y = Bouguerra(), Young()
        b.setup(ctx)
        y.setup(ctx)
        assert b.period < 0.5 * y.period

    def test_shorter_for_smaller_k(self):
        periods = []
        for k in (0.9, 0.6, 0.3):
            dist = Weibull.from_mtbf(125 * YEAR, k)
            ctx = make_ctx(dist, n_units=1024, work_time=8 * DAY)
            b = Bouguerra()
            b.setup(ctx)
            periods.append(b.period)
        assert periods[0] > periods[1] > periods[2]


class TestLiu:
    def test_exponential_is_periodic_young(self):
        """Constant hazard: the frequency function gives the Young period."""
        ctx = make_ctx(Exponential.from_mtbf(DAY), work_time=DAY)
        pol = Liu()
        pol.setup(ctx)
        chunks = pol._chunks[1:-1]
        expected = math.sqrt(2 * 600.0 * DAY)
        # interior chunks periodic at sqrt(2 C / h) - C spacing
        assert np.allclose(chunks, chunks[0], rtol=1e-3)
        assert chunks[0] == pytest.approx(expected - 600.0, rel=0.02)

    def test_weibull_small_k_large_platform_infeasible(self):
        """The paper's reported pathology: dates closer than C."""
        dist = Weibull.from_mtbf(125 * YEAR, 0.5)
        ctx = make_ctx(dist, n_units=45_208, work_time=8 * DAY)
        with pytest.raises(PolicyInfeasibleError):
            Liu().setup(ctx)

    def test_weibull_chunks_grow_over_time(self):
        """Decreasing hazard => later checkpoints farther apart."""
        dist = Weibull.from_mtbf(10 * DAY, 0.7)
        ctx = make_ctx(dist, work_time=2 * DAY)
        pol = Liu()
        pol.setup(ctx)
        chunks = pol._chunks
        assert chunks[-2] > chunks[1]


class TestDPNextFailurePolicy:
    def test_replans_after_failure(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        pol = DPNextFailurePolicy(n_grid=24)
        ctx = make_ctx(dist, work_time=6 * HOUR)
        pol.setup(ctx)
        w1 = pol.next_chunk(6 * HOUR, ctx)
        assert len(pol._queue) > 0
        pol.on_failure(ctx)
        assert len(pol._queue) == 0

    def test_truncation_limits_planning_horizon(self):
        dist = Weibull.from_mtbf(HOUR, 0.7)  # tiny MTBF, huge work
        pol = DPNextFailurePolicy(n_grid=24, truncation=2.0)
        ctx = make_ctx(dist, work_time=100 * DAY)
        pol.setup(ctx)
        pol.next_chunk(100 * DAY, ctx)
        planned = sum(pol._queue)
        assert planned <= 2.0 * ctx.platform_mtbf

    def test_chunks_positive_and_bounded(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        pol = DPNextFailurePolicy(n_grid=24)
        ctx = make_ctx(dist, work_time=6 * HOUR)
        pol.setup(ctx)
        rem = 6 * HOUR
        while rem > 1e-6:
            w = pol.next_chunk(rem, ctx)
            assert 0 < w <= rem + 1e-9
            rem -= w

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            DPNextFailurePolicy(n_grid=1)


class TestDPMakespanPolicy:
    def test_exponential_chunks_near_optexp(self):
        dist = Exponential.from_mtbf(4 * HOUR)
        pol = DPMakespanPolicy(n_grid=96)
        ctx = make_ctx(dist, work_time=12 * HOUR, checkpoint=600.0)
        pol.setup(ctx)
        w = pol.next_chunk(12 * HOUR, ctx)
        lam = 1.0 / ctx.platform_mtbf
        k = optimal_num_chunks(lam, 12 * HOUR, 600.0)
        assert w == pytest.approx(12 * HOUR / k, abs=2 * 600.0)

    def test_cache_reused_across_setups(self):
        dist = Exponential.from_mtbf(4 * HOUR)
        pol = DPMakespanPolicy(n_grid=48)
        ctx = make_ctx(dist, work_time=6 * HOUR)
        pol.setup(ctx)
        first = pol._result
        pol.setup(ctx)
        assert pol._result is first

    def test_simulation_runs_to_completion(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        traces = PlatformTraces(
            [np.array([5 * HOUR])], horizon=1e9, downtime=60.0
        ).for_job(1)
        res = simulate_job(
            DPMakespanPolicy(n_grid=48),
            6 * HOUR,
            traces,
            600.0,
            600.0,
            dist,
            platform_mtbf=DAY,
        )
        assert res.completed
        assert res.n_failures == 1


def test_paper_roster_agrees_across_layers():
    """The paper's ten policies (Section 4.1) are named in places that
    drift independently: the policies package exports, the CLI keys, the
    spec factory behind them, the experiment tables, the runner's two
    synthetic columns and the EXPERIMENTS.md narrative."""
    from pathlib import Path

    import repro.policies as policies
    from repro.cli import _POLICY_KEYS
    from repro.experiments.common import single_proc_policies
    from repro.experiments.config import SMOKE
    from repro.service.spec import POLICY_NAMES, policy_from_name
    from repro.simulation.runner import LOWER_BOUND, PERIOD_LB

    assert _POLICY_KEYS == POLICY_NAMES
    built = [policy_from_name(key) for key in POLICY_NAMES]
    assert all(type(p).__name__ in policies.__all__ for p in built)
    assert {type(p) for p in single_proc_policies(SMOKE)} == {
        type(p) for p in built
    }
    names = [LOWER_BOUND, PERIOD_LB, *(p.name for p in built)]
    assert len(set(names)) == 10
    experiments_md = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    text = experiments_md.read_text(encoding="utf-8")
    assert [n for n in names if n not in text] == []
