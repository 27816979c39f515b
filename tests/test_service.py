"""Scenario service: spec signatures, store, queue, daemon round-trips.

The acceptance properties of the PR-6 service live here:

- a result submitted through the daemon equals a direct in-process run
  of the same spec, *bit for bit* under canonical JSON;
- re-submitting an archived signature is served from the store
  (state ``cached``) with the hit counter visible in the status JSON;
- serialization round-trips :class:`ScenarioResult` exactly, including
  NaN makespans of infeasible policies.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.service.envelope import dumps, jsonable
from repro.service.queue import ExecutionOptions, JobQueue
from repro.service.serialize import (
    scenario_result_from_dict,
    scenario_result_to_dict,
)
from repro.service.spec import ScenarioSpec, SpecError, policy_from_name
from repro.service.store import ResultStore, store_version

TINY = dict(work=7200.0, mtbf=14400.0, n_traces=2,
            policies=("young", "dalylow"))


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / ".repro-service")


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_roundtrip_canonical(self):
        spec = ScenarioSpec(**TINY)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.canonical_json() == spec.canonical_json()

    def test_signature_is_stable_and_spec_sensitive(self):
        a = ScenarioSpec(**TINY)
        b = ScenarioSpec(**{**TINY, "seed": 1})
        assert a.signature() == ScenarioSpec(**TINY).signature()
        assert a.signature() != b.signature()
        assert len(a.signature()) == 40

    def test_signature_salted_with_code_version(self):
        spec = ScenarioSpec(**TINY)
        preimage_version = store_version()
        assert preimage_version in (store_version(),)  # memoized
        # the signature is not just the canonical JSON hash: the salt
        # must appear in the preimage (structural property)
        import hashlib

        unsalted = hashlib.sha256(
            spec.canonical_json().encode()
        ).hexdigest()[:40]
        assert spec.signature() != unsalted

    def test_shape_canonicalized_away_for_exponential(self):
        a = ScenarioSpec(dist="exponential", shape=0.7, **TINY)
        b = ScenarioSpec(dist="exponential", shape=1.5, **TINY)
        assert a.signature() == b.signature()
        assert "shape" not in a.to_dict()

    def test_policies_accept_comma_string(self):
        spec = ScenarioSpec.from_dict({"policies": "young,optexp"})
        assert spec.policies == ("young", "optexp")

    @pytest.mark.parametrize(
        "raw",
        [
            {"mtbf": -1.0},
            {"dist": "lognormal"},
            {"policies": []},
            {"policies": ["nope"]},
            {"policies": ["period:abc"]},
            {"p": 0},
            {"n_traces": 0},
            {"horizon": -5.0},
            {"nosuch": 1},
            {"p": 1.5},
        ],
    )
    def test_invalid_specs_raise(self, raw):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(raw)

    def test_policy_from_name_period(self):
        policy = policy_from_name("period:7200")
        assert policy.period == 7200.0
        with pytest.raises(SpecError):
            policy_from_name("period:-1")

    def test_execution_knobs_not_in_signature(self):
        # jobs/use_cache/... never appear in the spec — two submissions
        # differing only in execution mode share one archived result
        assert not (set(ExecutionOptions.__dataclass_fields__)
                    & set(ScenarioSpec._FIELD_ORDER))

    def test_split_overhead_platform(self):
        spec = ScenarioSpec(**{**TINY, "checkpoint": 100.0,
                               "recovery": 200.0})
        platform = spec.build_platform()
        assert platform.checkpoint == 100.0
        assert platform.recovery == 200.0


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


class TestSerialization:
    def _result(self):
        return ScenarioSpec(**TINY).run()

    def test_round_trip_bit_identity(self):
        result = self._result()
        doc = scenario_result_to_dict(result)
        # the document must survive strict JSON (the wire format)
        wire = dumps(jsonable(doc))
        again = scenario_result_from_dict(json.loads(wire))
        for name, spans in result.makespans.items():
            np.testing.assert_array_equal(spans, again.makespans[name])
            assert again.makespans[name].dtype == np.float64
        assert again.details.keys() == result.details.keys()
        for name, details in result.details.items():
            assert [d.makespan for d in details] == \
                [d.makespan for d in again.details[name]]
        assert again.work_time == result.work_time
        assert again.infeasible == result.infeasible

    def test_nan_and_none_survive(self):
        result = self._result()
        result.makespans["Young"][0] = math.nan
        result.details["Young"][1] = None
        result.best_period = math.nan
        doc = json.loads(dumps(jsonable(scenario_result_to_dict(result))))
        again = scenario_result_from_dict(doc)
        assert math.isnan(again.makespans["Young"][0])
        assert again.details["Young"][1] is None
        assert math.isnan(again.best_period)

    def test_foreign_format_rejected(self):
        with pytest.raises(ValueError):
            scenario_result_from_dict({"format": "something/else"})


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


class TestResultStore:
    def test_put_get_and_hit_counter(self, store):
        spec = ScenarioSpec(**TINY)
        sig = spec.signature()
        assert store.get(sig) is None
        store.put(sig, spec.to_dict(), {"format": "repro.result/1"})
        assert store.peek(sig).hits == 0  # peek never counts
        assert store.get(sig).hits == 1
        assert store.get(sig).hits == 2
        assert store.stats()["entries"] == 1
        assert store.stats()["total_hits"] == 2

    def test_put_is_idempotent(self, store):
        store.put("ab" * 20, {"a": 1}, {"r": 1})
        first = store.peek("ab" * 20)
        store.put("ab" * 20, {"a": 2}, {"r": 2})
        assert store.peek("ab" * 20).result == first.result

    def test_rooted_under_code_version(self, store):
        assert store.root.name == store_version()

    def test_corrupt_entry_is_a_miss(self, store):
        store.put("cd" * 20, {}, {"r": 1})
        path = store._entry_path("cd" * 20)
        path.write_text("{not json")
        assert store.get("cd" * 20) is None

    def test_wipe(self, store):
        store.put("ab" * 20, {}, {})
        store.put("cd" * 20, {}, {})
        assert store.wipe() == 2
        assert store.stats()["entries"] == 0


# ----------------------------------------------------------------------
# queue
# ----------------------------------------------------------------------


class TestJobQueue:
    def test_submit_executes_and_archives(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            spec = ScenarioSpec(**TINY)
            job = q.submit(spec)
            assert q.wait(job.job_id, timeout=120)
            status = q.status(job.job_id)
            assert status["state"] == "done"
            assert status["progress"]["done"] == status["progress"]["total"] > 0
            doc = q.result(job.job_id)
            assert doc["format"] == "repro.result/1"
            # a single job runs as a sweep group of one
            assert doc["trace_gen_reused"] is True
            assert store.peek(spec.signature()) is not None
        finally:
            q.shutdown()

    def test_resubmit_is_cached_with_hits(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            spec = ScenarioSpec(**TINY)
            first = q.submit(spec)
            assert q.wait(first.job_id, timeout=120)
            second = q.submit(spec)
            assert second.job_id != first.job_id
            status = q.status(second.job_id)
            assert status["state"] == "cached"
            assert status["cached"] is True
            assert status["store_hits"] == 1
            assert q.result(second.job_id) == q.result(first.job_id)
        finally:
            q.shutdown()

    def test_live_duplicate_coalesces(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            # a job that blocks lets the duplicate arrive while live
            blocker = ScenarioSpec(**TINY)
            release = threading.Event()
            original_run = ScenarioSpec.run

            def slow_run(self, **kwargs):
                release.wait(30)
                return original_run(self, **kwargs)

            ScenarioSpec.run = slow_run  # type: ignore[method-assign]
            try:
                a = q.submit(blocker)
                b = q.submit(blocker)
                assert a.job_id == b.job_id  # coalesced
            finally:
                release.set()
                ScenarioSpec.run = original_run  # type: ignore[method-assign]
            assert q.wait(a.job_id, timeout=120)
        finally:
            q.shutdown()

    def test_unknown_job_raises(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            with pytest.raises(KeyError):
                q.status("job-999999")
            with pytest.raises(KeyError):
                q.result("job-999999")
        finally:
            q.shutdown()

    def test_result_before_done_raises(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            release = threading.Event()
            original_run = ScenarioSpec.run

            def slow_run(self, **kwargs):
                release.wait(30)
                return original_run(self, **kwargs)

            ScenarioSpec.run = slow_run  # type: ignore[method-assign]
            try:
                job = q.submit(ScenarioSpec(**TINY))
                with pytest.raises(LookupError):
                    q.result(job.job_id)
            finally:
                release.set()
                ScenarioSpec.run = original_run  # type: ignore[method-assign]
            q.wait(job.job_id, timeout=120)
        finally:
            q.shutdown()

    def test_unknown_execution_keys_rejected(self):
        with pytest.raises(ValueError):
            ExecutionOptions.from_dict({"threads": 4})

    def test_status_snapshots_are_taken_under_lock(self, store, monkeypatch):
        """status()/jobs() must serialize against worker-side state
        flips: the snapshot dict is built with the job-table lock held,
        so it can never mix fields from two states."""
        from repro.service.queue import JobRecord

        q = JobQueue(store=store, workers=1)
        try:
            job = q.submit(ScenarioSpec(**TINY))
            assert q.wait(job.job_id, timeout=120)
            lock_held: list[bool] = []
            original = JobRecord.to_status_dict

            def observed(self):
                lock_held.append(q._lock.locked())
                return original(self)

            monkeypatch.setattr(JobRecord, "to_status_dict", observed)
            q.status(job.job_id)
            q.jobs()
            assert lock_held and all(lock_held)
        finally:
            q.shutdown()


# ----------------------------------------------------------------------
# batch submit (queue level)
# ----------------------------------------------------------------------


class TestBatchQueue:
    def _grid(self):
        from repro.service.spec import expand_grid

        return expand_grid(dict(TINY), {
            "checkpoint": [300.0, 600.0], "seed": [0, 1],
        })

    def test_submit_batch_groups_runs_and_archives(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            batch = q.submit_batch(self._grid())
            assert batch.plan["n_points"] == 4
            assert batch.plan["n_groups"] == 2  # seed axis splits traces
            assert q.wait_batch(batch.batch_id, timeout=120)
            status = q.batch_status(batch.batch_id)
            assert status["state"] == "done"
            assert status["states"] == {"done": 4}
            assert status["counters"]["scenarios"] == 4
            for job in status["jobs"]:
                assert q.result(job["job_id"])["format"] == "repro.result/1"
        finally:
            q.shutdown()

    def test_batch_results_identical_to_individual_submits(self, store,
                                                           tmp_path):
        from repro.service.serialize import comparable_result_payload

        def canon(doc):
            return json.dumps(comparable_result_payload(doc),
                              sort_keys=True)

        specs = self._grid()
        q = JobQueue(store=store, workers=1)
        try:
            batch = q.submit_batch(specs)
            assert q.wait_batch(batch.batch_id, timeout=120)
            via_batch = [canon(q.result(j)) for j in batch.job_ids]
        finally:
            q.shutdown()
        solo = JobQueue(
            store=ResultStore(tmp_path / "solo-store"), workers=1
        )
        try:
            jobs = [solo.submit(spec) for spec in specs]
            for job in jobs:
                assert solo.wait(job.job_id, timeout=120)
            via_solo = [canon(solo.result(job.job_id)) for job in jobs]
        finally:
            solo.shutdown()
        assert via_batch == via_solo

    def test_resubmitted_batch_is_all_cached(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            first = q.submit_batch(self._grid())
            assert q.wait_batch(first.batch_id, timeout=120)
            again = q.submit_batch(self._grid())
            assert again.plan["cached"] == 4
            assert again.plan["new_jobs"] == 0
            assert again.plan["n_groups"] == 0  # nothing left to execute
            assert q.batch_status(again.batch_id)["state"] == "done"
        finally:
            q.shutdown()

    def test_duplicate_points_coalesce_within_batch(self, store):
        spec = ScenarioSpec(**TINY)
        q = JobQueue(store=store, workers=1)
        try:
            batch = q.submit_batch([spec, spec, spec])
            assert batch.plan["n_points"] == 3
            assert batch.plan["new_jobs"] == 1
            assert batch.plan["coalesced"] == 2
            assert len(batch.point_jobs) == 3
            assert len(set(batch.point_jobs)) == 1
            assert batch.job_ids == [batch.point_jobs[0]]
            assert q.wait_batch(batch.batch_id, timeout=120)
        finally:
            q.shutdown()

    def test_member_failure_marks_batch_failed(self, store, monkeypatch):
        def boom(self, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(ScenarioSpec, "run", boom)
        q = JobQueue(store=store, workers=1)
        try:
            batch = q.submit_batch(self._grid())
            assert q.wait_batch(batch.batch_id, timeout=120)
            status = q.batch_status(batch.batch_id)
            assert status["state"] == "failed"
            assert status["states"]["failed"] == 4
            job = q.status(batch.job_ids[0])
            assert job["error"] == "RuntimeError: solver exploded"
        finally:
            q.shutdown()

    def test_empty_batch_rejected(self, store):
        q = JobQueue(store=store, workers=1)
        try:
            with pytest.raises(ValueError):
                q.submit_batch([])
            with pytest.raises(KeyError):
                q.batch_status("batch-999999")
        finally:
            q.shutdown()


class TestDaemonEndToEnd:
    @pytest.fixture
    def daemon(self, store):
        from repro.service.daemon import ServiceDaemon

        queue = JobQueue(store=store, workers=1)
        d = ServiceDaemon(queue=queue, host="127.0.0.1", port=0)
        d.start()
        yield d
        d.stop()

    @pytest.fixture
    def client(self, daemon):
        from repro.service.client import ServiceClient

        return ServiceClient(endpoint=daemon.endpoint)

    def test_health(self, client):
        env = client.health()
        assert env["ok"] is True
        assert env["data"]["status"] == "ok"

    def test_submit_poll_result_bit_identical_to_direct_run(self, client):
        spec = ScenarioSpec(**TINY)
        env = client.submit(spec.to_dict())
        assert env["ok"] is True
        job_id = env["data"]["job_id"]
        final = client.wait(job_id, timeout=120)
        assert final["data"]["state"] == "done"
        via_daemon = client.result(job_id)["data"]["result"]
        direct = json.loads(dumps(jsonable(
            scenario_result_to_dict(spec.run())
        )))
        # compare the *result* payload; elapsed/n_jobs/counters are run
        # metadata that legitimately differs between executions
        keep = ("format", "makespans", "details", "work_time",
                "best_period", "infeasible")
        assert json.dumps({k: via_daemon[k] for k in keep},
                          sort_keys=True) == \
            json.dumps({k: direct[k] for k in keep}, sort_keys=True)

    def test_resubmit_served_from_store(self, client):
        spec = ScenarioSpec(**TINY)
        first = client.submit(spec.to_dict())
        client.wait(first["data"]["job_id"], timeout=120)
        second = client.submit(spec.to_dict())
        assert second["data"]["state"] == "cached"
        assert second["data"]["store_hits"] == 1
        status = client.status(second["data"]["job_id"])
        assert status["data"]["cached"] is True
        assert status["data"]["store_hits"] == 1

    def test_bad_spec_is_http_400(self, client):
        env = client.submit({"mtbf": -1})
        assert env["ok"] is False
        assert env["exit_code"] == 2
        assert env["error"]["type"] == "SpecError"

    @pytest.mark.parametrize(
        "key", ["use_cache", "use_batch", "use_memo", "use_shm",
                "use_disk_cache"],
    )
    def test_removed_execution_keys_are_http_400(self, client, key):
        # jobs is the only per-job execution option; a process-wide
        # switch carried per job would race between concurrent jobs
        for path, body in (
            ("/v1/jobs", {"spec": dict(TINY)}),
            ("/v1/batches", {"specs": [dict(TINY)]}),
        ):
            env = client.request(
                "POST", path, {**body, "execution": {key: False}}
            )
            assert env["ok"] is False
            assert env["exit_code"] == 2
            # ValueError is the daemon's 400 class (500 is anything else)
            assert env["error"]["type"] == "ValueError"
            assert key in env["error"]["message"]

    def test_unknown_job_is_http_404(self, client):
        env = client.status("job-999999")
        assert env["ok"] is False
        assert env["error"]["type"] == "NotFound"

    def test_jobs_listing(self, client):
        spec = ScenarioSpec(**TINY)
        env = client.submit(spec.to_dict())
        client.wait(env["data"]["job_id"], timeout=120)
        listing = client.jobs()
        assert listing["ok"] is True
        assert any(j["job_id"] == env["data"]["job_id"]
                   for j in listing["data"]["jobs"])

    def test_stream_reaches_terminal_state(self, client):
        spec = ScenarioSpec(**{**TINY, "n_traces": 1,
                               "policies": ("young",)})
        env = client.submit(spec.to_dict())
        snapshots = list(client.stream(env["data"]["job_id"]))
        assert snapshots
        assert snapshots[-1]["state"] in ("done", "cached")

    def test_store_stats_endpoint(self, client):
        env = client.store_stats()
        assert env["ok"] is True
        assert "entries" in env["data"]

    def test_unix_socket_endpoint(self, store, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceDaemon

        queue = JobQueue(store=store, workers=1)
        d = ServiceDaemon(queue=queue, socket_path=str(tmp_path / "s.sock"))
        d.start()
        try:
            client = ServiceClient(endpoint=d.endpoint)
            assert client.health()["ok"] is True
        finally:
            d.stop()


# ----------------------------------------------------------------------
# daemon batch routes (/v1/batches)
# ----------------------------------------------------------------------


class TestDaemonBatches:
    @pytest.fixture
    def daemon(self, store):
        from repro.service.daemon import ServiceDaemon

        queue = JobQueue(store=store, workers=1)
        d = ServiceDaemon(queue=queue, host="127.0.0.1", port=0)
        d.start()
        yield d
        d.stop()

    @pytest.fixture
    def client(self, daemon):
        from repro.service.client import ServiceClient

        return ServiceClient(endpoint=daemon.endpoint)

    def test_base_grid_expanded_server_side(self, client):
        env = client.submit_batch(
            base=dict(TINY),
            grid={"checkpoint": [300.0, 600.0], "seed": [0, 1]},
        )
        assert env["ok"] is True
        data = env["data"]
        assert data["n_points"] == 4
        assert data["n_groups"] == 2
        final = client.wait_batch(data["batch_id"], timeout=120)
        assert final["data"]["state"] == "done"
        assert final["data"]["counters"]["scenarios"] == 4
        # every member result is fetchable through the job routes
        for job in final["data"]["jobs"]:
            doc = client.result(job["job_id"])["data"]["result"]
            assert doc["format"] == "repro.result/1"

    def test_explicit_spec_list(self, client):
        specs = [dict(TINY), {**TINY, "seed": 1}]
        env = client.submit_batch(specs=specs)
        assert env["ok"] is True
        assert env["data"]["n_points"] == 2
        final = client.wait_batch(env["data"]["batch_id"], timeout=120)
        assert final["data"]["state"] == "done"

    def test_batches_listing(self, client):
        env = client.submit_batch(specs=[dict(TINY)])
        client.wait_batch(env["data"]["batch_id"], timeout=120)
        listing = client.batches()
        assert listing["ok"] is True
        assert any(b["batch_id"] == env["data"]["batch_id"]
                   for b in listing["data"]["batches"])

    def test_empty_body_is_http_400(self, client):
        env = client.request("POST", "/v1/batches", {})
        assert env["ok"] is False
        assert env["exit_code"] == 2

    def test_specs_and_grid_together_rejected(self, client):
        env = client.request("POST", "/v1/batches", {
            "specs": [dict(TINY)], "base": dict(TINY),
            "grid": {"seed": [0]},
        })
        assert env["ok"] is False

    def test_unknown_batch_is_http_404(self, client):
        env = client.batch_status("batch-999999")
        assert env["ok"] is False
        assert env["error"]["type"] == "NotFound"
