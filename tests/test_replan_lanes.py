"""DPNextFailure replans in lockstep lanes.

The runner replays an adaptive policy's traces as lanes of the scalar
engine loop that suspend at each replan; one step resolves every
suspended lane's replan together (:func:`repro.core.cache.cached_replans`)
and solves the cold ones stacked by lattice shape
(:func:`repro.core.dp_nextfailure.dp_next_failure_many`).  Every test
here is an identity gate: lanes against the trace-by-trace scalar path
(:func:`repro.simulation.engine.simulate_job`, one
:func:`repro.core.cache.cached_replan` at a time) and against the
reference kernel (:mod:`tests.nextfailure_oracle`), bit for bit, with
the cache counters reading the same.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import repro.core.dp_nextfailure as dpnf
from repro.cluster.models import ConstantOverhead, Platform
from repro.core.cache import (
    cache_stats,
    cached_replans,
    clear_cache,
    clear_replan_memo,
    quantize_ages,
    replan_memo_stats,
)
from repro.core.diskcache import disk_cache_stats, wipe_disk_cache
from repro.core.state import PlatformState
from repro.distributions import Empirical, Exponential, Weibull
from repro.experiments.common import make_distribution
from repro.experiments.config import SMOKE
from repro.experiments.scaling import make_overhead, make_preset
from repro.policies.dp import DPNextFailurePolicy, ReplanRequest
from repro.simulation.batch import simulate_policy_ensemble
from repro.simulation.engine import simulate_job
from repro.simulation.parallel import _job_trace
from repro.simulation.runner import run_scenarios
from repro.units import DAY, HOUR

from . import nextfailure_oracle as oracle
from .conftest import bypass_solve_caches


def _cold() -> None:
    """Empty replan memo, table cache and disk tier."""
    clear_replan_memo()
    clear_cache()
    wipe_disk_cache()


def _counters() -> tuple[int, ...]:
    memo, table, disk = replan_memo_stats(), cache_stats(), disk_cache_stats()
    return (
        memo.hits, memo.misses, table.hits, table.misses,
        disk.hits, disk.misses, disk.stores,
    )


def _delta(before, after) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(after, before))


def _fields(result) -> tuple:
    """Every SimulationResult field, floats by their bits."""
    return tuple(
        np.float64(v).tobytes() if isinstance(v, float) else v
        for v in dataclasses.astuple(result)
    )


class _Scenario:
    """A platform, its traces and the replay arguments."""

    def __init__(self, platform, work_time, horizon, seed, n_traces, t0=0.0):
        self.platform = platform
        self.work_time = work_time
        self.t0 = t0
        self.traces = [
            _job_trace(platform, horizon, seed, i) for i in range(n_traces)
        ]

    def kwargs(self) -> dict:
        return dict(
            t0=self.t0,
            platform_mtbf=self.platform.platform_mtbf,
            max_makespan=50 * self.work_time,
        )

    def lanes(self, policy, traces=None):
        """The production dispatcher: lockstep lanes, from cold caches;
        returns (results, counter deltas)."""
        _cold()
        before = _counters()
        results = simulate_policy_ensemble(
            policy,
            self.work_time,
            self.traces if traces is None else traces,
            self.platform.checkpoint,
            self.platform.recovery,
            self.platform.dist,
            **self.kwargs(),
        )
        return results, _delta(before, _counters())

    def scalar(self, policy, traces=None):
        """Trace by trace, one replan at a time, from cold caches."""
        _cold()
        before = _counters()
        results = [
            simulate_job(
                policy,
                self.work_time,
                tr,
                self.platform.checkpoint,
                self.platform.recovery,
                self.platform.dist,
                **self.kwargs(),
            )
            for tr in (self.traces if traces is None else traces)
        ]
        return results, _delta(before, _counters())


def _table4_shaped(n_traces: int = 6) -> _Scenario:
    """Table 4's platform at smoke scale: Petascale, Weibull k = 0.7,
    constant overheads, the paper's t0 offset and horizon."""
    preset = make_preset("peta", SMOKE)
    platform = Platform(
        p=preset.ptotal,
        dist=make_distribution("weibull", preset.processor_mtbf, 0.7),
        downtime=preset.downtime,
        overhead=make_overhead("constant", preset),
    )
    return _Scenario(
        platform,
        preset.work / preset.ptotal,
        preset.horizon,
        seed=2011,
        n_traces=n_traces,
        t0=preset.start_offset,
    )


def _cap_binding(n_traces: int = 5) -> _Scenario:
    """Checkpoints long next to the platform MTBF: the chunk-count cap
    binds, and lanes at different ages get different lattice shapes."""
    platform = Platform(
        p=4,
        dist=Weibull.from_mtbf(6 * HOUR, 0.6),
        downtime=60.0,
        overhead=ConstantOverhead(3 * HOUR),
    )
    return _Scenario(platform, 10 * HOUR, 400 * DAY, seed=3, n_traces=n_traces)


def _small(n_traces: int = 4) -> _Scenario:
    """Small enough for the reference kernel."""
    platform = Platform(
        p=4,
        dist=Weibull.from_mtbf(2 * DAY, 0.7),
        downtime=60.0,
        overhead=ConstantOverhead(600.0),
    )
    return _Scenario(platform, 6 * HOUR, 200 * DAY, seed=5, n_traces=n_traces)


def _record_shapes(monkeypatch) -> list[list[tuple[int, int]]]:
    """Record the lattice shapes of every ``dp_next_failure_many`` call."""
    calls: list[list[tuple[int, int]]] = []
    real = dpnf.dp_next_failure_many

    def recording(problems):
        calls.append([dpnf._lattice(*problem) for problem in problems])
        return real(problems)

    monkeypatch.setattr(dpnf, "dp_next_failure_many", recording)
    return calls


class TestLanesMatchScalar:
    def test_table4_shaped(self, monkeypatch):
        scenario = _table4_shaped()
        policy = DPNextFailurePolicy()
        calls = _record_shapes(monkeypatch)
        lanes, lane_counts = scenario.lanes(policy)
        scalar, scalar_counts = scenario.scalar(policy)
        assert [_fields(r) for r in lanes] == [_fields(r) for r in scalar]
        assert lane_counts == scalar_counts
        memo_hits, memo_misses, _th, table_misses, _dh, disk_misses, stores = (
            lane_counts
        )
        assert memo_misses == disk_misses == stores == table_misses > 0
        # several lanes' cold solves shared a stacked call
        assert max(len(shapes) for shapes in calls) > 1

    def test_cap_binding_mixes_shapes_within_a_step(self, monkeypatch):
        scenario = _cap_binding()
        policy = DPNextFailurePolicy(n_grid=24)
        calls = _record_shapes(monkeypatch)
        lanes, lane_counts = scenario.lanes(policy)
        scalar, scalar_counts = scenario.scalar(policy)
        assert [_fields(r) for r in lanes] == [_fields(r) for r in scalar]
        assert lane_counts == scalar_counts
        assert any(len(set(shapes)) > 1 for shapes in calls)
        assert any(n_cap < x0 + 1 for shapes in calls for x0, n_cap in shapes)

    def test_duplicated_traces_repeat_keys_within_a_step(self):
        scenario = _small()
        traces = scenario.traces[:2] * 3
        policy = DPNextFailurePolicy(n_grid=16)
        lanes, lane_counts = scenario.lanes(policy, traces)
        scalar, scalar_counts = scenario.scalar(policy, traces)
        assert [_fields(r) for r in lanes] == [_fields(r) for r in scalar]
        assert lane_counts == scalar_counts
        memo_hits, memo_misses = lane_counts[:2]
        # each key is solved once; every other replan of it is a hit
        assert memo_hits >= 2 * memo_misses

    def test_lanes_match_the_reference_kernel(self, monkeypatch):
        scenario = _small()
        traces = scenario.traces[:3] + scenario.traces[:1]
        policy = DPNextFailurePolicy(n_grid=16)
        lanes, _ = scenario.lanes(policy, traces)
        with monkeypatch.context() as mp:
            bypass_solve_caches(mp)
            reference, counts = scenario.scalar(policy, traces)
        assert counts[:2] == (0, 0)  # no memo on the oracle arm
        assert [_fields(r) for r in lanes] == [_fields(r) for r in reference]

    def test_jobs_one_equals_jobs_two(self):
        scenario = _cap_binding(n_traces=6)
        runs = []
        for jobs in (1, 2):
            _cold()
            runs.append(
                run_scenarios(
                    [DPNextFailurePolicy(n_grid=24)],
                    scenario.platform,
                    scenario.work_time,
                    n_traces=6,
                    horizon=400 * DAY,
                    seed=3,
                    include_lower_bound=False,
                    include_period_lb=False,
                    jobs=jobs,
                )
            )
        serial, pooled = runs
        assert serial.scheduler["units"] == 1
        assert pooled.scheduler["units"] == 2
        assert np.array_equal(
            serial.makespans["DPNextFailure"], pooled.makespans["DPNextFailure"]
        )
        for a, b in zip(
            serial.details["DPNextFailure"], pooled.details["DPNextFailure"]
        ):
            assert _fields(a) == _fields(b)


def _requests(rng, n: int) -> list[ReplanRequest]:
    """Random replans on a few processors, some of them repeated."""
    requests = []
    for _ in range(n):
        dist = (
            Exponential.from_mtbf(DAY)
            if rng.random() < 0.3
            else Weibull.from_mtbf(DAY, 0.7)
        )
        work = float(rng.choice([2 * HOUR, 6 * HOUR, 12 * HOUR]))
        u = work / int(rng.choice([8, 12]))
        checkpoint = float(rng.choice([300.0, 4 * HOUR]))
        ages = quantize_ages(rng.uniform(0, 2 * DAY, size=3), u)
        requests.append(
            ReplanRequest(work, checkpoint, dist, ages, u, 1, 1, True)
        )
    return requests + requests[: n // 3]


class TestCachedReplans:
    def test_equals_one_at_a_time_with_the_same_counters(self):
        requests = _requests(np.random.default_rng(0), 24)
        _cold()
        before = _counters()
        together = cached_replans(requests)
        together_counts = _delta(before, _counters())
        _cold()
        before = _counters()
        alone = [request.resolve() for request in requests]
        alone_counts = _delta(before, _counters())
        assert together_counts == alone_counts
        for a, b in zip(together, alone):
            assert a.chunks.tobytes() == b.chunks.tobytes()
            assert a.expected_work == b.expected_work and a.u == b.u
        # warm: every request is a memo hit, nothing is solved or loaded
        before = _counters()
        again = cached_replans(requests)
        memo_hits, memo_misses, *rest = _delta(before, _counters())
        assert (memo_hits, memo_misses) == (len(requests), 0)
        assert rest == [0] * len(rest)
        assert all(a is b for a, b in zip(again, alone))

    def test_disk_warm_step_loads_and_solves_nothing(self):
        requests = _requests(np.random.default_rng(1), 12)
        _cold()
        cold = cached_replans(requests)
        clear_replan_memo()
        clear_cache()
        before = _counters()
        warm = cached_replans(requests)
        memo_hits, memo_misses, table_hits, table_misses, disk_hits, disk_misses, stores = (
            _delta(before, _counters())
        )
        assert disk_hits == memo_misses > 0
        assert disk_misses == table_hits == table_misses == stores == 0
        for a, b in zip(warm, cold):
            assert a.chunks.tobytes() == b.chunks.tobytes()


class TestStackedKernel:
    def _problems(self, rng, n: int):
        problems = []
        for _ in range(n):
            dist = Weibull.from_mtbf(float(rng.uniform(0.5, 3.0)) * DAY, 0.7)
            ages = quantize_ages(rng.uniform(0, DAY, size=3), 600.0)
            state = PlatformState(ages, dist)
            x0 = int(rng.choice([6, 9]))
            u = float(rng.uniform(0.05, 0.3)) * DAY / x0
            checkpoint = float(rng.choice([60.0, 0.3 * DAY]))
            problems.append((x0 * u, checkpoint, state, u))
        return problems

    def test_many_equals_one_by_one_and_the_oracle(self):
        # more problems of one shape than one stacked call takes
        problems = self._problems(np.random.default_rng(7), 2 * dpnf._STACK + 5)
        problems += problems[:4]
        many = dpnf.dp_next_failure_many(problems)
        shapes = [dpnf._lattice(*p) for p in problems]
        assert max(shapes.count(s) for s in set(shapes)) > dpnf._STACK
        assert len(set(shapes)) > 1
        for problem, got in zip(problems, many):
            alone = dpnf.dp_next_failure_parallel(*problem)
            slow = oracle.dp_next_failure_parallel(*problem)
            for ref in (alone, slow):
                assert got.chunks.tobytes() == ref.chunks.tobytes()
                assert got.expected_work == ref.expected_work
                assert got.u == ref.u

    def test_ties_take_the_first_maximum(self):
        """With no failure possible within the horizon every chunking
        completes all the work, so every choice ties exactly (integer
        quanta); the first maximum picks one-quantum chunks, as the
        reference kernel does."""
        never = Empirical(np.array([1e12, 2e12, 3e12]))
        state = PlatformState(np.zeros(2), never)
        problem = (8.0, 1.0, state, 1.0)
        slow = oracle.dp_next_failure_parallel(*problem)
        assert slow.chunks.tolist() == [1.0] * 8
        for result in dpnf.dp_next_failure_many([problem] * 3):
            assert result.chunks.tobytes() == slow.chunks.tobytes()
            assert result.expected_work == slow.expected_work == 8.0
