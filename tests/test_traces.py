"""Failure trace generation: semantics, coherence, reproducibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, Weibull
from repro.traces import (
    PlatformTraces,
    generate_failure_times,
    generate_platform_traces,
    generate_rejuvenated_platform_traces,
)
from repro.units import DAY, HOUR
from tests import traces_oracle


class TestSingleTrace:
    def test_within_horizon_and_sorted(self):
        rng = np.random.default_rng(0)
        t = generate_failure_times(Exponential(1 / HOUR), 2 * DAY, rng, downtime=60.0)
        assert np.all(t <= 2 * DAY)
        assert np.all(np.diff(t) > 0)

    def test_gaps_include_downtime(self):
        rng = np.random.default_rng(1)
        t = generate_failure_times(Exponential(1 / 100.0), 50_000.0, rng, downtime=30.0)
        assert np.all(np.diff(t) >= 30.0)

    def test_failure_count_matches_renewal_rate(self):
        rng = np.random.default_rng(2)
        horizon, mtbf, d = 500 * HOUR, HOUR, 0.0
        t = generate_failure_times(Exponential(1 / mtbf), horizon, rng, downtime=d)
        assert len(t) == pytest.approx(horizon / mtbf, rel=0.15)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            generate_failure_times(Exponential(1.0), 0.0, np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(
        mtbf=st.floats(min_value=10.0, max_value=1e5),
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.floats(min_value=0.3, max_value=2.0),
    )
    def test_property_trace_valid_for_weibull(self, mtbf, seed, k):
        rng = np.random.default_rng(seed)
        horizon = 20 * mtbf
        t = generate_failure_times(
            Weibull.from_mtbf(mtbf, k), horizon, rng, downtime=mtbf / 100
        )
        assert np.all(t > 0)
        assert np.all(t <= horizon)
        assert np.all(np.diff(t) >= mtbf / 100 - 1e-9)


class TestPlatformTraces:
    def test_reproducible(self):
        a = generate_platform_traces(Exponential(1 / HOUR), 5, DAY, seed=7)
        b = generate_platform_traces(Exponential(1 / HOUR), 5, DAY, seed=7)
        for x, y in zip(a.per_unit, b.per_unit):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = generate_platform_traces(Exponential(1 / HOUR), 3, DAY, seed=1)
        b = generate_platform_traces(Exponential(1 / HOUR), 3, DAY, seed=2)
        assert not all(np.array_equal(x, y) for x, y in zip(a.per_unit, b.per_unit))

    def test_prefix_coherence(self):
        """Traces for a p-unit job are the prefix of the full platform's
        traces (paper Section 4.3)."""
        full = generate_platform_traces(Exponential(1 / HOUR), 8, DAY, seed=3)
        small = full.for_job(3)
        big = full.for_job(8)
        small_events = set(zip(small.times.tolist(), small.units.tolist()))
        big_events = set(
            (t, u) for t, u in zip(big.times.tolist(), big.units.tolist()) if u < 3
        )
        assert small_events == big_events

    def test_merged_sorted(self):
        tr = generate_platform_traces(Exponential(1 / HOUR), 6, DAY, seed=4).for_job(6)
        assert np.all(np.diff(tr.times) >= 0)
        assert tr.units.max() < 6

    def test_for_job_validates(self):
        pt = generate_platform_traces(Exponential(1 / HOUR), 2, DAY, seed=0)
        with pytest.raises(ValueError):
            pt.for_job(3)
        with pytest.raises(ValueError):
            pt.for_job(0)


class TestRejuvenatedTraces:
    def test_single_macro_unit(self):
        pt = generate_rejuvenated_platform_traces(
            Exponential(1 / HOUR), 8, DAY, downtime=60.0, seed=0
        )
        assert pt.n_units == 1

    def test_failure_rate_matches_min_law(self):
        from repro.distributions import Weibull
        from repro.distributions.minimum import MinOfIID

        d = Weibull.from_mtbf(10 * DAY, 0.7)
        p = 16
        horizon = 3000 * DAY
        pt = generate_rejuvenated_platform_traces(d, p, horizon, seed=1)
        rate = pt.per_unit[0].size / horizon
        assert rate == pytest.approx(1.0 / MinOfIID(d, p).mean(), rel=0.1)

    def test_exponential_matches_independent_rate(self):
        """Memorylessness: both trace models yield the same platform
        failure rate for Exponential lifetimes."""
        d = Exponential(1 / DAY)
        p, horizon = 8, 2000 * DAY
        merged = generate_platform_traces(d, p, horizon, seed=2).for_job(p)
        rej = generate_rejuvenated_platform_traces(d, p, horizon, seed=3).for_job(1)
        assert merged.times.size == pytest.approx(rej.times.size, rel=0.1)


class TestJobTraces:
    def test_next_event_index(self):
        pt = PlatformTraces([np.array([10.0, 20.0, 30.0])], horizon=100.0, downtime=1.0)
        tr = pt.for_job(1)
        assert tr.next_event_index(5.0) == 0
        assert tr.next_event_index(10.0) == 1  # strictly after
        assert tr.next_event_index(25.0) == 2
        assert tr.next_event_index(99.0) == 3

    def test_lifetime_starts(self):
        pt = PlatformTraces(
            [np.array([10.0]), np.array([50.0]), np.array([])],
            horizon=100.0,
            downtime=5.0,
        )
        tr = pt.for_job(3)
        starts = tr.lifetime_starts_at(t0=30.0)
        assert starts[0] == pytest.approx(15.0)  # failed at 10, downtime 5
        assert starts[1] == 0.0  # fails later, lifetime began at 0
        assert starts[2] == 0.0  # never fails

    def test_downtime_in_progress_at_submission(self):
        # failure at 29 with downtime 5: the unit is still down at t0=30
        # and its lifetime starts at 34, after the submission time
        pt = PlatformTraces([np.array([29.0])], horizon=100.0, downtime=5.0)
        starts = pt.for_job(1).lifetime_starts_at(t0=30.0)
        assert starts[0] == pytest.approx(34.0)


def _assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def _assert_matches_oracle(pt: PlatformTraces, per_unit: list[np.ndarray]) -> None:
    """The flat platform equals the per-unit oracle: every unit's dates,
    and every prefix job's merged stream."""
    assert pt.n_units == len(per_unit)
    for got, want in zip(pt.per_unit, per_unit):
        _assert_same(got, want)
    for n in sorted({1, max(1, len(per_unit) // 2), len(per_unit)}):
        job = pt.for_job(n)
        times, units = traces_oracle.reference_merge(per_unit, n)
        _assert_same(job.times, times)
        _assert_same(job.units, units)


class TestFlatMatchesOracle:
    """The flat unit-major path against the per-unit oracle
    (``tests/traces_oracle.py``), bit for bit and dtype for dtype."""

    @pytest.mark.parametrize("downtime", [0.0, 60.0])
    @pytest.mark.parametrize(
        "dist",
        [Exponential(1 / HOUR), Weibull.from_mtbf(HOUR, 0.7)],
        ids=["exp", "weibull0.7"],
    )
    def test_generation_and_merge(self, dist, downtime):
        for seed in (0, [11, 3], np.random.SeedSequence(5)):
            per_unit = traces_oracle.reference_per_unit(dist, 9, DAY, downtime, seed)
            pt = generate_platform_traces(dist, 9, DAY, downtime=downtime, seed=seed)
            _assert_matches_oracle(pt, per_unit)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_tail_continuation(self, monkeypatch, batch):
        """A batch far too small sends most units (all of them at size 1)
        through their child-stream tails, several batches deep."""
        from repro.traces import generation

        monkeypatch.setattr(generation, "_trace_batch_size", lambda *args: batch)
        dist = Weibull.from_mtbf(HOUR, 0.7)
        per_unit = traces_oracle.reference_per_unit(dist, 7, DAY, 30.0, 4)
        assert max(t.size for t in per_unit) > 2 * batch
        pt = generate_platform_traces(dist, 7, DAY, downtime=30.0, seed=4)
        _assert_matches_oracle(pt, per_unit)
        # tails come from per-unit child streams: still prefix-coherent
        small = generate_platform_traces(dist, 3, DAY, downtime=30.0, seed=4)
        for got, want in zip(small.per_unit, per_unit):
            _assert_same(got, want)

    def test_for_job_prefix_coherent(self):
        dist = Exponential(1 / HOUR)
        full = generate_platform_traces(dist, 12, DAY, downtime=10.0, seed=8)
        for n in (1, 5, 11):
            small = generate_platform_traces(dist, n, DAY, downtime=10.0, seed=8)
            a, b = full.for_job(n), small.for_job(n)
            _assert_same(a.times, b.times)
            _assert_same(a.units, b.units)

    def test_built_from_a_list(self):
        per_unit = [
            np.array([5.0, 40.0]),
            np.array([], dtype=float),
            np.array([7.0, 40.0, 90.0]),
            np.array([1.0]),
        ]
        pt = PlatformTraces(per_unit, horizon=100.0, downtime=2.0)
        _assert_matches_oracle(pt, per_unit)
        # the second half of a replicated platform, as split_traces builds it
        from repro.simulation.replication import split_traces

        first, second = split_traces(pt, 2)
        for job, units in ((first, per_unit[:2]), (second, per_unit[2:])):
            times, labels = traces_oracle.reference_merge(units, 2)
            _assert_same(job.times, times)
            _assert_same(job.units, labels)

    def test_lifetime_starts_with_repeated_units(self):
        dist = Exponential(1 / HOUR)
        job = generate_platform_traces(dist, 6, DAY, downtime=45.0, seed=2).for_job(6)
        before = job.units[job.times < DAY / 2]
        assert np.bincount(before).max() > 1
        for t0 in (0.0, 1.0, DAY / 4, DAY / 2, DAY):
            want = traces_oracle.reference_lifetime_starts(
                job.times, job.units, job.n_units, job.downtime, t0
            )
            _assert_same(job.lifetime_starts_at(t0), want)
