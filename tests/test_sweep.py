"""Grid sweep engine: expansion, trace-signature planning, execution.

The acceptance property of the PR-10 sweep engine lives here: a grid
executed through :func:`run_sweep`'s shared-trace plan is **bit
identical** (comparable result payload under canonical JSON) to running
every point as an independent scenario (``spec.run()`` per point) —
against the reference oracles and across worker counts.
"""

from __future__ import annotations

import json

import pytest

from repro.service.serialize import (
    comparable_result_payload,
    scenario_result_to_dict,
)
from repro.service.spec import ScenarioSpec, SpecError, expand_grid
from repro.simulation.sweep import plan_sweep, run_sweep, trace_signature

from .conftest import bypass_solve_caches, disk_tier_off, scalar_replay

TINY = dict(work=7200.0, mtbf=14400.0, n_traces=2,
            policies=("young", "dalylow"))


def _payload_json(result) -> str:
    """Canonical JSON of the comparable payload — the identity gate."""
    return json.dumps(
        comparable_result_payload(scenario_result_to_dict(result)),
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------


class TestExpandGrid:
    def test_cartesian_order_last_axis_fastest(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        assert [(s.checkpoint, s.seed) for s in specs] == [
            (300.0, 0), (300.0, 1), (600.0, 0), (600.0, 1),
        ]

    def test_expansion_is_deterministic(self):
        grid = {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        a = expand_grid(dict(TINY), grid)
        b = expand_grid(dict(TINY), grid)
        assert [s.signature() for s in a] == [s.signature() for s in b]

    def test_empty_grid_is_one_point(self):
        specs = expand_grid(dict(TINY), {})
        assert len(specs) == 1
        assert specs[0] == ScenarioSpec(**TINY)

    def test_policies_axis(self):
        specs = expand_grid(
            dict(TINY), {"policies": [["young"], ["dalylow", "optexp"]]}
        )
        assert specs[0].policies == ("young",)
        assert specs[1].policies == ("dalylow", "optexp")

    @pytest.mark.parametrize(
        "grid",
        [
            {"nosuchfield": [1]},
            {"checkpoint": []},
            {"checkpoint": 600.0},
            {"checkpoint": "600"},
            {"mtbf": [-1.0]},
        ],
    )
    def test_invalid_grids_fail_whole_expansion(self, grid):
        with pytest.raises(SpecError):
            expand_grid(dict(TINY), grid)


# ----------------------------------------------------------------------
# trace-signature planning
# ----------------------------------------------------------------------


class TestPlanSweep:
    def test_replay_only_axes_collapse_into_one_group(self):
        # checkpoint cost and policy choice never touch trace generation
        specs = expand_grid(dict(TINY), {
            "checkpoint": [300.0, 600.0, 900.0],
            "policies": [["young"], ["dalylow"]],
        })
        plan = plan_sweep(specs)
        assert plan.n_points == 6
        assert len(plan.groups) == 1
        assert plan.groups[0].indices == tuple(range(6))
        assert plan.to_dict() == {
            "n_points": 6, "n_groups": 1, "group_sizes": [6],
            "shared_trace_gens_saved": 5,
        }

    def test_seed_axis_splits_groups_in_first_seen_order(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        plan = plan_sweep(specs)
        assert len(plan.groups) == 2
        # last axis (seed) varies fastest: seed 0 at 0,2 / seed 1 at 1,3
        assert plan.groups[0].indices == (0, 2)
        assert plan.groups[1].indices == (1, 3)

    def test_work_axis_splits_unless_horizon_pinned(self):
        # work feeds the default horizon, so a work axis changes the
        # generated traces — unless the spec pins horizon explicitly
        free = expand_grid(dict(TINY), {"work": [7200.0, 14400.0]})
        pinned = expand_grid(
            {**TINY, "horizon": 200000.0}, {"work": [7200.0, 14400.0]}
        )
        assert len(plan_sweep(free).groups) == 2
        assert len(plan_sweep(pinned).groups) == 1

    def test_exponential_shape_canonicalized_away(self):
        a = ScenarioSpec(dist="exponential", shape=0.7, **TINY)
        b = ScenarioSpec(dist="exponential", shape=1.5, **TINY)
        assert trace_signature(a) == trace_signature(b)
        w = ScenarioSpec(dist="weibull", shape=0.7, **TINY)
        assert trace_signature(a) != trace_signature(w)


# ----------------------------------------------------------------------
# execution: bit-identity to independent runs
# ----------------------------------------------------------------------


def _grid_12():
    """12 points, 2 trace groups (seed axis splits, the rest replay)."""
    return expand_grid(dict(TINY), {
        "checkpoint": [300.0, 600.0, 900.0],
        "seed": [0, 1],
        "policies": [["young"], ["dalylow"]],
    })


class TestRunSweepIdentity:
    @pytest.mark.parametrize(
        "oracles",
        [
            (),  # independent production runs
            (bypass_solve_caches, disk_tier_off),
            (scalar_replay, bypass_solve_caches),
        ],
        ids=["defaults", "no-memo-no-disk", "no-batch-no-l1"],
    )
    def test_12_point_grid_bit_identical_to_independent_runs(
        self, oracles, monkeypatch
    ):
        specs = _grid_12()
        # reference: every point run alone, under the given oracles
        with monkeypatch.context() as mp:
            for oracle in oracles:
                oracle(mp)
            reference = [spec.run(jobs=1) for spec in specs]
        sweep = run_sweep(specs, jobs=1)
        assert [_payload_json(r) for r in sweep.results] == \
            [_payload_json(r) for r in reference]

    @pytest.mark.slow
    def test_parallel_sweep_bit_identical_with_shm(self):
        specs = _grid_12()
        reference = [spec.run(jobs=1) for spec in specs]
        sweep = run_sweep(specs, jobs=2)
        assert sweep.n_jobs == 2
        assert all(stats["shm"] for stats in sweep.group_stats)
        assert [_payload_json(r) for r in sweep.results] == \
            [_payload_json(r) for r in reference]


class TestRunSweepReporting:
    def test_group_stats_record_reuse_and_prefetch(self):
        sweep = run_sweep(_grid_12(), jobs=1)
        assert len(sweep.group_stats) == 2
        for stats in sweep.group_stats:
            assert stats["n_points"] == 6
            assert stats["trace_gen_reused"] is True
            assert stats["ensemble_reused"] is True
            assert stats["build_seconds"] >= 0.0
        # the first group is built inline; every later group's traces
        # are prefetched while its predecessor replays
        assert sweep.group_stats[0]["prefetched"] is False
        assert sweep.group_stats[1]["prefetched"] is True

    def test_reference_path_reuses_nothing(self):
        for result in [spec.run(jobs=1) for spec in _grid_12()[:2]]:
            assert result.trace_gen_reused is False
            assert result.ensemble_reused is False

    def test_counters_roll_up_over_all_points(self):
        sweep = run_sweep(_grid_12(), jobs=1)
        assert sweep.counters["scenarios"] == 12
        assert sweep.counters["elapsed"] > 0.0
        for key in ("cache_hits", "memo_hits", "disk_hits"):
            assert key in sweep.counters

    def test_scheduler_summary_shape(self):
        summary = run_sweep(_grid_12()[:2], jobs=1).scheduler_summary()
        assert summary["units"] > 0
        assert summary["est_cost_max"] >= summary["est_cost_mean"] > 0.0
        assert summary["est_imbalance"] >= 1.0

    def test_callbacks_fire_in_plan_order(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        started: list[int] = []
        finished: list[int] = []
        ticks: list[tuple[int, int]] = []

        sweep = run_sweep(
            specs,
            jobs=1,
            on_point_start=started.append,
            on_point_done=lambda i, result: finished.append(i),
            progress=lambda done, total: ticks.append((done, total)),
        )
        # execution follows the plan: group 0 (seed 0) then group 1
        assert started == [0, 2, 1, 3]
        assert finished == started
        assert ticks == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert all(r is not None for r in sweep.results)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCliSweep:
    _ARGS = ["sweep", "--work", "2h", "--mtbf", "4h", "--traces", "1",
             "--policies", "young"]

    def _run(self, capsys, extra):
        from repro.cli import main

        rc = main([*self._ARGS, *extra])
        return rc, json.loads(capsys.readouterr().out)

    def test_local_sweep_envelope(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(
            capsys, ["--grid", "checkpoint=5m,10m", "--grid", "seed=1,2"]
        )
        assert rc == 0 and env["ok"] is True
        data = env["data"]
        assert data["plan"] == {
            "n_points": 4, "n_groups": 2, "group_sizes": [2, 2],
            "shared_trace_gens_saved": 2,
        }
        assert len(data["points"]) == 4
        assert data["points"][0]["spec"]["checkpoint"] == 300.0
        assert data["points"][0]["result"]["format"] == "repro.result/1"
        assert data["counters"]["scenarios"] == 4
        assert len(data["group_stats"]) == 2

    def test_sweep_points_identical_to_run(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc, planned = self._run(capsys, ["--grid", "checkpoint=5m,10m"])
        assert rc == 0
        keep = lambda doc: json.dumps(  # noqa: E731
            comparable_result_payload(doc), sort_keys=True
        )
        for point, checkpoint in zip(planned["data"]["points"], ("5m", "10m")):
            assert main(["run", *self._ARGS[1:], "--checkpoint", checkpoint]) == 0
            alone = json.loads(capsys.readouterr().out)["data"]["result"]
            assert keep(point["result"]) == keep(alone)

    def test_bad_grid_key_is_spec_error(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(capsys, ["--grid", "nosuchfield=1"])
        assert rc == 2
        assert env["error"]["type"] == "SpecError"

    def test_policies_grid_axis_plus_join(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(
            capsys, ["--grid", "policies=young+dalylow,optexp"]
        )
        assert rc == 0
        specs = [p["spec"] for p in env["data"]["points"]]
        assert [s["policies"] for s in specs] == [
            ["young", "dalylow"], ["optexp"],
        ]
