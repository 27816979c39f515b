"""Differential testing: optimized engine vs the transparent reference
implementation, over random scenarios."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, Weibull
from repro.policies.base import PeriodicPolicy
from repro.simulation import simulate_job
from repro.traces.generation import PlatformTraces, generate_platform_traces

from .engine_oracle import simulate_job_reference


def both(policy_period, work, traces, c, r, dist, t0=0.0):
    a = simulate_job(
        PeriodicPolicy(policy_period), work, traces, c, r, dist, t0=t0
    )
    b = simulate_job_reference(
        PeriodicPolicy(policy_period), work, traces, c, r, dist, t0=t0
    )
    return a, b


class TestHandCrafted:
    def test_failure_free(self):
        tr = PlatformTraces([np.array([])], 1e9, 50.0).for_job(1)
        a, b = both(250.0, 1000.0, tr, 100.0, 80.0, Exponential(1.0))
        assert a.makespan == b.makespan

    def test_single_failure(self):
        tr = PlatformTraces([np.array([300.0])], 1e9, 50.0).for_job(1)
        a, b = both(500.0, 500.0, tr, 100.0, 80.0, Exponential(1.0))
        assert a.makespan == b.makespan == pytest.approx(1030.0)

    def test_cascade(self):
        tr = PlatformTraces(
            [np.array([300.0]), np.array([320.0])], 1e9, 50.0
        ).for_job(2)
        a, b = both(500.0, 500.0, tr, 100.0, 80.0, Exponential(1.0))
        assert a.makespan == b.makespan == pytest.approx(1050.0)

    def test_recovery_interrupt(self):
        tr = PlatformTraces(
            [np.array([300.0]), np.array([360.0])], 1e9, 50.0
        ).for_job(2)
        a, b = both(500.0, 500.0, tr, 100.0, 80.0, Exponential(1.0))
        assert a.makespan == b.makespan == pytest.approx(1090.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    period=st.floats(min_value=150.0, max_value=30_000.0),
    mtbf=st.floats(min_value=1000.0, max_value=100_000.0),
    k=st.floats(min_value=0.4, max_value=1.8),
    n_units=st.integers(min_value=1, max_value=5),
    t0_frac=st.floats(min_value=0.0, max_value=0.2),
)
def test_engines_agree_on_random_scenarios(seed, period, mtbf, k, n_units, t0_frac):
    dist = Weibull.from_mtbf(mtbf, k)
    work, c, r, d = 25_000.0, 300.0, 200.0, 40.0
    horizon = 300 * work
    traces = generate_platform_traces(dist, n_units, horizon, downtime=d, seed=seed)
    tr = traces.for_job(n_units)
    t0 = t0_frac * horizon / 10
    a = simulate_job(PeriodicPolicy(period), work, tr, c, r, dist, t0=t0)
    b = simulate_job_reference(
        PeriodicPolicy(period), work, traces.for_job(n_units), c, r, dist, t0=t0
    )
    assert a.makespan == pytest.approx(b.makespan, rel=1e-12)
    assert a.n_failures == b.n_failures
    assert a.n_checkpoints == b.n_checkpoints
