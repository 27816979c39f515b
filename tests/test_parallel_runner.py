"""Parallel scenario runner: determinism, infeasibility recording,
execution configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.models import ConstantOverhead, Platform
from repro.distributions import Exponential, Weibull
from repro.policies import DPMakespanPolicy, DPNextFailurePolicy, Liu, OptExp, Young
from repro.simulation.parallel import (
    ParallelRunner,
    resolve_jobs,
    set_default_execution,
)
from repro.simulation.runner import LOWER_BOUND, PERIOD_LB, run_scenarios
from repro.units import DAY, HOUR

from .conftest import bypass_solve_caches, disk_tier_off


def _platform(dist):
    return Platform(p=4, dist=dist, downtime=60.0, overhead=ConstantOverhead(600.0))


def _run(policies, platform, **kw):
    base = dict(
        work_time=DAY,
        n_traces=6,
        horizon=200 * DAY,
        seed=7,
        period_lb_factors=[0.5, 1.0, 2.0],
    )
    base.update(kw)
    return run_scenarios(policies, platform, **base)


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self, monkeypatch):
        """The acceptance gate: fixed seed, jobs=4 vs jobs=1, identical
        per-trace makespans for every policy including the DP ones.  The
        serial and the parallel arm both solve cold (L1 cleared, no disk
        tier); a serial rerun over the L1 caches the first run warmed
        must agree too."""
        from repro.core.cache import clear_cache, clear_replan_memo

        disk_tier_off(monkeypatch)
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        policies = lambda: [
            Young(),
            OptExp(),
            DPNextFailurePolicy(n_grid=32),
            DPMakespanPolicy(n_grid=48),
        ]
        clear_cache()
        clear_replan_memo()
        serial = _run(policies(), platform, jobs=1)
        warm = _run(policies(), platform, jobs=1)
        clear_cache()
        clear_replan_memo()
        parallel = _run(policies(), platform, jobs=4)
        assert serial.cache_misses >= 1 and parallel.cache_misses >= 1
        assert warm.cache_misses == 0 and warm.memo_misses == 0
        for other in (warm, parallel):
            assert set(serial.makespans) == set(other.makespans)
            for name in serial.makespans:
                assert np.array_equal(
                    serial.makespans[name], other.makespans[name], equal_nan=True
                ), name
            assert serial.best_period == other.best_period

    def test_batch_size_does_not_change_results(self, monkeypatch):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        a = _run([Young()], platform, jobs=1)
        # one trace per work unit instead of one unit per worker
        monkeypatch.setattr(
            ParallelRunner,
            "_trace_batches",
            lambda self, indices: [[i] for i in indices],
        )
        b = _run([Young()], platform, jobs=1)
        assert b.scheduler["units"] > a.scheduler["units"]
        assert np.array_equal(a.makespans["Young"], b.makespans["Young"])
        assert np.array_equal(a.makespans[PERIOD_LB], b.makespans[PERIOD_LB])

    def test_no_cache_does_not_change_results(self, monkeypatch):
        from repro.core.cache import clear_cache

        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        clear_cache()
        a = _run([DPMakespanPolicy(n_grid=48)], platform, jobs=1)
        with monkeypatch.context() as mp:
            bypass_solve_caches(mp)
            b = _run([DPMakespanPolicy(n_grid=48)], platform, jobs=1)
        assert a.cache_hits >= 1 and b.cache_hits + b.cache_misses == 0
        assert np.array_equal(
            a.makespans["DPMakespan"], b.makespans["DPMakespan"], equal_nan=True
        )

    def test_period_lb_winner_matches_serial(self):
        """Period units are dealt round-robin and stitched back into
        sorted-period order: on the default 35-candidate grid the winner
        and its makespans must match the serial run and the reference
        search over the same traces, whatever the worker count."""
        from repro.policies.periodlb import best_period_search, candidate_factors
        from repro.simulation.parallel import _job_trace
        from repro.simulation.runner import _optexp_period

        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        traces = [_job_trace(platform, 200 * DAY, 7, i) for i in range(6)]
        for factors in ([0.5, 1.0, 2.0], candidate_factors()):
            search = best_period_search(
                _optexp_period(platform, DAY),
                DAY,
                traces,
                platform.checkpoint,
                platform.recovery,
                platform.dist,
                factors=factors,
            )
            serial = _run([Young()], platform, jobs=1, period_lb_factors=factors)
            assert serial.best_period == search.best_period
            assert np.mean(serial.makespans[PERIOD_LB]) == search.best_mean_makespan
            for jobs in (2, 3):
                parallel = _run(
                    [Young()], platform, jobs=jobs, period_lb_factors=factors
                )
                assert parallel.best_period == search.best_period
                assert np.array_equal(
                    serial.makespans[PERIOD_LB], parallel.makespans[PERIOD_LB]
                )


class TestPeriodLBFromCandidateLanes:
    """PeriodLB's makespans are the winning candidate's lanes (and a
    replay of the traces outside the search subset): they must equal a
    fresh replay of the winning period over every trace."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("period_lb_traces", [None, 4])
    def test_equals_fresh_winner_replay(self, jobs, period_lb_traces):
        from repro.policies.base import PeriodicPolicy
        from repro.simulation.batch import simulate_policy_ensemble
        from repro.simulation.parallel import _job_trace

        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        horizon = 200 * DAY
        res = _run(
            [Young()],
            platform,
            jobs=jobs,
            n_traces=7,
            horizon=horizon,
            period_lb_factors=[0.25, 0.5, 1.0, 2.0, 4.0],
            period_lb_traces=period_lb_traces,
        )
        traces = [_job_trace(platform, horizon, 7, i) for i in range(7)]
        fresh = simulate_policy_ensemble(
            PeriodicPolicy(res.best_period, name=PERIOD_LB),
            DAY,
            traces,
            platform.checkpoint,
            platform.recovery,
            platform.dist,
            platform_mtbf=platform.platform_mtbf,
        )
        assert list(res.makespans[PERIOD_LB]) == [r.makespan for r in fresh]


class TestResultStructure:
    def test_all_entries_present(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young(), OptExp()], platform)
        assert set(res.makespans) == {"Young", "OptExp", LOWER_BOUND, PERIOD_LB}
        for spans in res.makespans.values():
            assert spans.shape == (6,)

    def test_details_in_trace_order(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, jobs=2)
        dets = res.details["Young"]
        assert len(dets) == 6
        assert [d.makespan for d in dets] == list(res.makespans["Young"])

    def test_timing_and_jobs_recorded(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, jobs=2)
        assert res.n_jobs == 2
        assert res.elapsed > 0

    def test_cache_counters_surface(self):
        from repro.core.cache import clear_cache

        clear_cache()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        res = _run(
            [DPMakespanPolicy(n_grid=48)],
            platform,
            jobs=1,
            include_period_lb=False,
        )
        # one DP solve, then one hit per remaining trace
        assert res.cache_misses >= 1
        assert res.cache_hits >= res.makespans["DPMakespan"].size - 1


class TestInfeasibleRecording:
    def test_liu_infeasible_recorded_not_swallowed(self):
        """Liu is infeasible on large decreasing-hazard platforms: the
        runner must record which traces failed, identically on both
        execution paths, instead of silently leaving NaN."""
        platform = Platform(
            p=64,
            dist=Weibull.from_mtbf(30 * DAY, 0.3),
            downtime=60.0,
            overhead=ConstantOverhead(600.0),
        )
        kw = dict(
            work_time=0.5 * DAY,
            n_traces=3,
            horizon=60 * DAY,
            seed=3,
            include_period_lb=False,
            max_makespan=50 * 0.5 * DAY,
        )
        serial = run_scenarios([Liu(), Young()], platform, jobs=1, **kw)
        assert "Liu" in serial.infeasible
        assert serial.infeasible["Liu"] == [0, 1, 2]
        assert np.all(np.isnan(serial.makespans["Liu"]))
        assert "Young" not in serial.infeasible

        parallel = run_scenarios([Liu(), Young()], platform, jobs=2, **kw)
        assert parallel.infeasible == serial.infeasible

    def test_feasible_scenario_has_empty_infeasible(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, include_period_lb=False)
        assert res.infeasible == {}


class TestExecutionConfig:
    def test_default_roundtrip(self):
        original = resolve_jobs(None)
        try:
            set_default_execution(jobs=3)
            assert resolve_jobs(None) == 3
            assert ParallelRunner().jobs == 3
        finally:
            set_default_execution(jobs=original)

    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_explicit_args_override_default(self):
        original = resolve_jobs(None)
        try:
            set_default_execution(jobs=4)
            assert ParallelRunner(jobs=1).jobs == 1
        finally:
            set_default_execution(jobs=original)


class TestReplanMemo:
    """Cross-trace replan memo: identical results to cold solves (the
    ``bypass_solve_caches`` oracle), serial or parallel, and counters
    surfaced in the result."""

    def _dp_run(self, **kw):
        from repro.core.cache import clear_cache, clear_replan_memo

        clear_cache()
        clear_replan_memo()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios(
            [DPNextFailurePolicy(n_grid=24)], platform, **base
        )

    def test_memo_on_off_identical_serial(self, monkeypatch):
        on = self._dp_run(jobs=1)
        with monkeypatch.context() as mp:
            bypass_solve_caches(mp)
            off = self._dp_run(jobs=1)
        assert np.array_equal(
            on.makespans["DPNextFailure"], off.makespans["DPNextFailure"]
        )

    def test_memo_serial_parallel_identical_with_counters(self):
        serial = self._dp_run(jobs=1)
        parallel = self._dp_run(jobs=2)
        assert np.array_equal(
            serial.makespans["DPNextFailure"],
            parallel.makespans["DPNextFailure"],
        )
        # every replan consults the memo; at least the cross-trace
        # fresh-platform plan hits on both execution paths
        assert serial.memo_misses >= 1 and serial.memo_hits >= 1
        assert parallel.memo_misses >= 1
        assert parallel.memo_hits + parallel.memo_misses > 0

    def test_memo_off_reports_zero_hits(self, monkeypatch):
        # the oracle really bypasses the memo (so comparisons against it
        # are not vacuous), while production replans hit it
        with monkeypatch.context() as mp:
            bypass_solve_caches(mp)
            off = self._dp_run(jobs=1)
        assert off.memo_hits == 0 and off.memo_misses == 0
        on = self._dp_run(jobs=1)
        assert on.memo_hits >= 1


class TestSharedMemory:
    """Shared-memory trace publication: bit-identical to regeneration,
    robust to publish/attach failures."""

    def _run_shm(self, **kw):
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=11,
            include_lower_bound=True,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios([Young(), OptExp()], platform, **base)

    def test_shm_on_off_identical(self, monkeypatch):
        import repro.simulation.shm as shm_mod

        on = self._run_shm(jobs=2)
        attempts = []

        def failing_publish(*args, **kw):
            attempts.append(1)
            raise OSError("no shared memory here")

        # the "off" arm: publication fails, workers regenerate traces
        with monkeypatch.context() as mp:
            mp.setattr(shm_mod, "publish_scenario", failing_publish)
            off = self._run_shm(jobs=2)
        assert attempts
        serial = self._run_shm(jobs=1)
        for name in serial.makespans:
            assert np.array_equal(on.makespans[name], serial.makespans[name]), name
            assert np.array_equal(off.makespans[name], serial.makespans[name]), name

    def test_publish_failure_falls_back(self, monkeypatch):
        import repro.simulation.shm as shm_mod

        def boom(*a, **kw):
            raise OSError("no shared memory here")

        monkeypatch.setattr(shm_mod, "publish_scenario", boom)
        res = self._run_shm(jobs=2)
        serial = self._run_shm(jobs=1)
        for name in serial.makespans:
            assert np.array_equal(res.makespans[name], serial.makespans[name]), name

    def test_attach_failure_falls_back(self, monkeypatch):
        # Workers are forked, so they inherit the monkeypatched module
        # attribute; _task_traces must swallow the failure and
        # regenerate from the determinism anchor.
        import repro.simulation.shm as shm_mod

        def boom(layout):
            raise OSError("attach refused")

        monkeypatch.setattr(shm_mod, "attach_scenario", boom)
        res = self._run_shm(jobs=2)
        serial = self._run_shm(jobs=1)
        for name in serial.makespans:
            assert np.array_equal(res.makespans[name], serial.makespans[name]), name

    def test_publish_attach_roundtrip(self):
        from repro.simulation import shm as shm_mod
        from repro.simulation.batch import TraceEnsemble
        from repro.simulation.parallel import _job_trace

        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        horizon = 50 * DAY
        traces = [_job_trace(platform, horizon, seed=3, index=i) for i in range(4)]
        ensemble = TraceEnsemble(traces, platform.recovery, 0.0)
        pub = shm_mod.publish_scenario(
            traces,
            ensemble,
            n_units=platform.num_nodes,
            downtime=platform.downtime,
            horizon=horizon,
            recovery=platform.recovery,
            t0=0.0,
        )
        try:
            with shm_mod.attach_scenario(pub.layout) as scenario:
                for i, tr in enumerate(traces):
                    got = scenario.job_traces(i)
                    assert np.array_equal(got.times, tr.times)
                    assert np.array_equal(got.units, tr.units)
                    assert got.n_units == tr.n_units
                    assert got.downtime == tr.downtime
                    assert got.horizon == tr.horizon
                # Row-slices of the global ensemble vs an ensemble
                # compiled from just those traces: identical up to the
                # narrower padding width, inert +inf/carry padding after.
                sub = scenario.ensemble_rows([1, 3])
                full = TraceEnsemble([traces[1], traces[3]], platform.recovery, 0.0)
                w = full.fail.shape[1]
                assert np.array_equal(sub.t_start, full.t_start)
                assert np.array_equal(sub.fail[:, :w], full.fail)
                assert np.array_equal(sub.resume[:, :w], full.resume)
                assert np.array_equal(sub.cumfail[:, :w], full.cumfail)
                assert np.all(np.isinf(sub.fail[:, w:]))
                assert np.array_equal(
                    sub.cumfail[:, w:],
                    np.broadcast_to(
                        sub.cumfail[:, w - 1 : w], sub.cumfail[:, w:].shape
                    ),
                )
        finally:
            pub.close()

    def test_publish_empty_raises(self):
        from repro.simulation import shm as shm_mod

        with pytest.raises(ValueError):
            shm_mod.publish_scenario(
                [], None, n_units=1, downtime=0.0, horizon=1.0,
                recovery=0.0, t0=0.0,
            )

    def test_attach_closes_segment_on_corrupt_layout(self, monkeypatch):
        """A layout the segment cannot satisfy (bad dtype/offset) must
        not leak the attachment: __init__ closes before propagating."""
        from repro.simulation import shm as shm_mod

        class FakeSegment:
            buf = memoryview(bytearray(8))
            closed = False

            def close(self):
                FakeSegment.closed = True

        monkeypatch.setattr(
            shm_mod, "_attach_segment", lambda name: FakeSegment()
        )
        bad_spec = shm_mod._ArraySpec(
            offset=0, shape=(1000,), dtype="float64"  # 8000 B > 8 B buffer
        )
        layout = shm_mod.ScenarioLayout(
            shm_name="bogus",
            specs={"times": bad_spec},
            n_units=1,
            downtime=0.0,
            horizon=1.0,
            recovery=0.0,
            t0=0.0,
        )
        with pytest.raises(Exception):
            shm_mod.attach_scenario(layout)
        assert FakeSegment.closed


class TestDiskCacheTier:
    """Persistent L2 disk tier under the runner: counters surfaced,
    bit-identity with the tier on or off, and the tier as the one way
    solves cross a process boundary (with it off, each process solves
    for itself)."""

    def _dp_run(self, **kw):
        from repro.core.cache import clear_cache, clear_replan_memo

        clear_cache()
        clear_replan_memo()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios(
            [DPNextFailurePolicy(n_grid=24)], platform, **base
        )

    def test_disk_warm_run_bit_identical(self):
        """Second run with cleared L1 caches is served from disk and
        produces the same makespans bit-for-bit."""
        cold = self._dp_run(jobs=1)
        assert cold.disk_misses >= 1  # every solve persisted
        warm = self._dp_run(jobs=1)  # _dp_run cleared L1 again
        assert np.array_equal(
            cold.makespans["DPNextFailure"], warm.makespans["DPNextFailure"]
        )
        assert warm.disk_hits >= 1

    def test_disk_tier_off_bit_identical_and_uncounted(self, monkeypatch):
        on = self._dp_run(jobs=1)
        with monkeypatch.context() as mp:
            disk_tier_off(mp)
            off = self._dp_run(jobs=1)
        assert np.array_equal(
            on.makespans["DPNextFailure"], off.makespans["DPNextFailure"]
        )
        assert off.disk_hits == 0 and off.disk_misses == 0

    def test_counters_consistent_serial(self):
        res = self._dp_run(jobs=1)
        assert res.disk_evictions == 0

    def test_parallel_rerun_served_from_disk(self):
        """The disk tier is the one channel solves take between
        processes: a second ``jobs=2`` run whose processes all start
        with empty L1 caches loads every replan the first run persisted
        and matches it bit for bit."""
        cold = self._dp_run(jobs=2)
        assert cold.disk_misses >= 1
        warm = self._dp_run(jobs=2)  # _dp_run cleared L1 again
        assert np.array_equal(
            cold.makespans["DPNextFailure"], warm.makespans["DPNextFailure"]
        )
        assert warm.disk_misses == 0
        assert warm.memo_misses == warm.disk_hits >= 1
