"""The daemon's job queue: submit/poll semantics over the runner tier.

Jobs move through ``queued -> running -> done | failed``; a submission
whose signature is already archived short-circuits to ``cached`` and
never enters the queue, and a submission whose signature is already
queued or running **coalesces** onto the live job instead of solving
the same scenario twice.  Worker threads drain the queue; each job's
scenario execution fans out over ParallelRunner processes, so the
queue's worker count bounds *concurrent scenarios* while the execution
config bounds *processes per scenario*.

Batch submission (``POST /v1/batches``, :meth:`JobQueue.submit_batch`)
layers the sweep planner on top: every point of a sweep becomes a
member job with the usual store-hit / live-coalesce semantics, and the
points that actually need solving are grouped by trace signature
(:func:`repro.simulation.sweep.trace_signature`) into *group tasks* —
one queue entry per group, executed by :func:`repro.simulation.sweep.
run_sweep` over one shared trace set.  A single submission is a group
of one, so every queue entry runs through ``run_sweep``.  Member jobs
stay individually addressable (status/result/stream by job id); the
:class:`BatchRecord` aggregates them into one batch-status envelope.

Thread-safety: one lock guards the job table; records hand out
JSON-ready snapshots (:meth:`JobRecord.to_status_dict`) rather than
live references.  Progress is fed by the runner's per-work-unit
callback (PR-6 plumbing in :class:`ParallelRunner`).
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.service.serialize import scenario_result_to_dict
from repro.service.spec import ScenarioSpec
from repro.service.store import ResultStore

__all__ = ["BatchRecord", "ExecutionOptions", "JobQueue", "JobRecord"]

#: Job states; ``cached`` and ``done`` both carry a result.
STATES = ("queued", "running", "done", "failed", "cached")
_TERMINAL = ("done", "failed", "cached")


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution options a submission may carry: only the worker count,
    never part of the signature (it cannot change results, only
    wall-clock).  Nothing here touches process-wide state, so jobs the
    daemon runs concurrently cannot change each other's execution."""

    jobs: int | None = None

    @classmethod
    def from_dict(cls, raw: dict[str, Any] | None) -> "ExecutionOptions":
        if not raw:
            return cls()
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown execution keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class JobRecord:
    """Mutable in-daemon state of one submitted scenario."""

    job_id: str
    signature: str
    spec: ScenarioSpec
    execution: ExecutionOptions
    state: str = "queued"
    error: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    progress_done: int = 0
    progress_total: int = 0
    store_hits: int = 0
    result_doc: dict[str, Any] | None = None
    _event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def to_status_dict(self) -> dict[str, Any]:
        """JSON-ready status snapshot (no result payload)."""
        return {
            "job_id": self.job_id,
            "signature": self.signature,
            "state": self.state,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
            "cached": self.state == "cached",
            "store_hits": self.store_hits,
            "spec": self.spec.to_dict(),
        }


@dataclass
class _GroupTask:
    """One queue entry: the member jobs of a sweep group, executed
    together over a shared trace set (a single submission is a group of
    one)."""

    job_ids: list[str]
    execution: ExecutionOptions


@dataclass
class BatchRecord:
    """One batch submission: the member jobs of a sweep, point order."""

    batch_id: str
    point_jobs: list[str]  # job id per grid point, submission order
    n_groups: int
    submitted_at: float
    plan: dict[str, Any] = field(default_factory=dict)

    @property
    def job_ids(self) -> list[str]:
        """Unique member job ids, first-appearance order (duplicate
        signatures within a batch coalesce onto one job)."""
        seen: dict[str, None] = {}
        for job_id in self.point_jobs:
            seen.setdefault(job_id)
        return list(seen)


class JobQueue:
    """Thread-backed scenario queue in front of a :class:`ResultStore`."""

    def __init__(self, store: ResultStore | None = None, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store if store is not None else ResultStore()
        self._jobs: dict[str, JobRecord] = {}
        self._batches: dict[str, BatchRecord] = {}
        self._by_signature: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tasks: _queue.Queue[_GroupTask | None] = _queue.Queue()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-job-worker-{i}")
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ----------------------------------------------------

    def _register_locked(
        self, spec: ScenarioSpec, execution: ExecutionOptions
    ) -> tuple[JobRecord, bool]:
        """Store-hit / live-coalesce / new-job logic, lock held by the
        caller; returns ``(job, newly_queued)`` — the caller decides how
        a newly queued job reaches the task queue (alone or inside a
        batch's group task)."""
        signature = spec.signature()
        live_id = self._by_signature.get(signature)  # reprolint: disable=R9 caller holds _lock
        if live_id is not None and not self._jobs[live_id].terminal:  # reprolint: disable=R9 caller holds _lock
            return self._jobs[live_id], False  # reprolint: disable=R9 caller holds _lock
        entry = self.store.get(signature)
        job = JobRecord(
            job_id=f"job-{next(self._ids):06d}",
            signature=signature,
            spec=spec,
            execution=execution,
            submitted_at=time.time(),
        )
        if entry is not None:
            job.state = "cached"
            job.result_doc = entry.result
            job.store_hits = entry.hits
            job.finished_at = job.submitted_at
            job._event.set()
        else:
            self._by_signature[signature] = job.job_id  # reprolint: disable=R9 caller holds _lock
        self._jobs[job.job_id] = job  # reprolint: disable=R9 caller holds _lock
        return job, job.state == "queued"

    def submit(
        self,
        spec: ScenarioSpec,
        execution: ExecutionOptions | None = None,
    ) -> JobRecord:
        """Register a scenario; returns its (possibly pre-existing) job.

        Store hit -> a fresh ``cached`` job carrying the archived
        result.  Live job with the same signature -> that job (the
        caller polls the first submission's progress).  Otherwise a new
        ``queued`` job.
        """
        execution = execution if execution is not None else ExecutionOptions()
        with self._lock:
            job, newly_queued = self._register_locked(spec, execution)
            if newly_queued:
                self._tasks.put(_GroupTask([job.job_id], execution))
            return job

    def submit_batch(
        self,
        specs: list[ScenarioSpec],
        execution: ExecutionOptions | None = None,
    ) -> BatchRecord:
        """Register a sweep: one member job per grid point, coalesced
        into shared-trace group tasks.

        Every point gets the :meth:`submit` semantics (store hit ->
        ``cached``, live signature -> coalesce — including duplicates
        *within* the batch).  The points left to solve are grouped by
        :func:`~repro.simulation.sweep.trace_signature`; each group is
        one queue entry, executed over one generated trace set / one
        compiled ensemble / one shm publication by
        :func:`~repro.simulation.sweep.run_sweep`.  Results land in the
        store under each member's own signature, so later submissions
        hit regardless of how the batch was grouped.
        """
        if not specs:
            raise ValueError("batch must contain at least one spec")
        # grouping is simulation-layer logic; imported here to keep the
        # queue importable without pulling the whole execution tier
        from repro.simulation.sweep import trace_signature

        execution = execution if execution is not None else ExecutionOptions()
        with self._lock:
            point_jobs: list[str] = []
            new_jobs: list[JobRecord] = []
            cached = 0
            for spec in specs:
                job, newly_queued = self._register_locked(spec, execution)
                point_jobs.append(job.job_id)
                if newly_queued:
                    new_jobs.append(job)
                elif job.state == "cached":
                    cached += 1
            groups: dict[tuple, list[str]] = {}
            for job in new_jobs:
                key = trace_signature(job.spec)
                groups.setdefault(key, []).append(job.job_id)
            batch = BatchRecord(
                batch_id=f"batch-{next(self._batch_ids):06d}",
                point_jobs=point_jobs,
                n_groups=len(groups),
                submitted_at=time.time(),  # reprolint: clock-ok=submission timestamp, never reaches results
                plan={
                    "n_points": len(specs),
                    "n_groups": len(groups),
                    "group_sizes": sorted(
                        (len(ids) for ids in groups.values()), reverse=True
                    ),
                    "new_jobs": len(new_jobs),
                    "cached": cached,
                    "coalesced": len(specs) - len(new_jobs) - cached,
                },
            )
            self._batches[batch.batch_id] = batch
            for job_ids in groups.values():
                self._tasks.put(_GroupTask(job_ids=job_ids, execution=execution))
            return batch

    # -- execution -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            self._execute_group(item)

    def _execute_group(self, task: _GroupTask) -> None:
        """Run one queue entry's member jobs over a shared trace set.

        ``run_sweep`` drives the per-point lifecycle through callbacks:
        a member flips to ``running`` when its point starts, gets
        per-work-unit progress ticks while it replays, and is archived +
        marked ``done`` the moment its point finishes — so pollers see
        members complete one by one.  A group-level failure fails every
        not-yet-done member with the same error."""
        with self._lock:
            jobs: list[JobRecord] = []
            for job_id in task.job_ids:
                job = self._jobs.get(job_id)
                if job is not None and job.state == "queued":
                    jobs.append(job)
        if not jobs:
            return
        from repro.simulation.sweep import run_sweep

        specs = [job.spec for job in jobs]

        def on_point_start(index: int) -> None:
            with self._lock:
                jobs[index].state = "running"
                jobs[index].started_at = time.time()  # reprolint: clock-ok=job bookkeeping timestamp

        def point_progress(index: int, done: int, total: int) -> None:
            jobs[index].progress_done = done
            jobs[index].progress_total = total

        def on_point_done(index: int, result: Any) -> None:
            job = jobs[index]
            result_doc = scenario_result_to_dict(result)
            self.store.put(job.signature, job.spec.to_dict(), result_doc)
            with self._lock:
                job.result_doc = result_doc
                job.state = "done"
                job.finished_at = time.time()  # reprolint: clock-ok=job bookkeeping timestamp
                self._by_signature.pop(job.signature, None)
            job._event.set()

        try:
            run_sweep(
                specs,
                jobs=task.execution.jobs,
                on_point_start=on_point_start,
                on_point_done=on_point_done,
                point_progress=point_progress,
            )
        except Exception as exc:
            with self._lock:
                for job in jobs:
                    if not job.terminal:
                        job.error = f"{type(exc).__name__}: {exc}"
                        job.state = "failed"
                        job.finished_at = time.time()  # reprolint: clock-ok=job bookkeeping timestamp
                        self._by_signature.pop(job.signature, None)
            # full trace belongs in the daemon's stderr log, not the API
            traceback.print_exc()
        finally:
            for job in jobs:
                job._event.set()

    # -- queries -------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        """JSON-ready status snapshot of one job (KeyError if unknown).

        The snapshot is taken under the job-table lock: a worker flips
        ``state``/``finished_at``/``result_doc`` together under the same
        lock, so the dict can never mix fields from two states.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job.to_status_dict()
        raise KeyError(f"unknown job {job_id!r}")

    def result(self, job_id: str) -> dict[str, Any]:
        """The archived result document of a finished job.

        Raises :class:`KeyError` for unknown jobs and
        :class:`LookupError` for jobs that have no result (yet)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                result_doc, state = job.result_doc, job.state
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if result_doc is None:
            raise LookupError(
                f"job {job_id} is {state}; no result available"
            )
        return result_doc

    def jobs(self) -> list[dict[str, Any]]:
        """Status snapshots of every job, oldest first (each snapshot
        taken under the lock, see :meth:`status`)."""
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda j: j.job_id)
            return [job.to_status_dict() for job in records]

    def wait(self, job_id: str, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True if it finished in time."""
        return self._job(job_id)._event.wait(timeout)

    def _batch(self, batch_id: str) -> BatchRecord:
        with self._lock:
            batch = self._batches.get(batch_id)
        if batch is None:
            raise KeyError(f"unknown batch {batch_id!r}")
        return batch

    def batch_status(self, batch_id: str) -> dict[str, Any]:
        """One JSON-ready envelope for a whole batch (KeyError if
        unknown): overall state, per-state member counts, aggregate
        progress, the submission-time plan, member snapshots in point
        order, and a counter roll-up over the members that already
        carry a result.

        Overall state: ``failed`` if any member failed, ``done`` once
        every member is terminal, ``running`` while any member runs,
        else ``queued``."""
        from repro.simulation.runner import COUNTER_FIELDS

        batch = self._batch(batch_id)
        with self._lock:
            members = [
                self._jobs[job_id].to_status_dict()
                for job_id in batch.point_jobs
            ]
            result_docs = [
                self._jobs[job_id].result_doc for job_id in batch.job_ids
            ]
        states = [m["state"] for m in members]
        if "failed" in states:
            overall = "failed"
        elif all(s in _TERMINAL for s in states):
            overall = "done"
        elif "running" in states:
            overall = "running"
        else:
            overall = "queued"
        counters: dict[str, int] = {}
        scenarios_with_counters = 0
        for doc in result_docs:
            if not doc:
                continue
            scenarios_with_counters += 1
            for name in COUNTER_FIELDS:
                counters[name] = counters.get(name, 0) + int(doc.get(name, 0))
        counters["scenarios"] = scenarios_with_counters
        return {
            "batch_id": batch.batch_id,
            "state": overall,
            "submitted_at": batch.submitted_at,
            "plan": dict(batch.plan),
            "n_points": len(batch.point_jobs),
            "n_groups": batch.n_groups,
            "states": {s: states.count(s) for s in STATES if s in states},
            "progress": {
                "done": sum(m["progress"]["done"] for m in members),
                "total": sum(m["progress"]["total"] for m in members),
            },
            "counters": counters,
            "jobs": members,
        }

    def batches(self) -> list[dict[str, Any]]:
        """Status snapshots of every batch, oldest first."""
        with self._lock:
            batch_ids = sorted(self._batches)
        return [self.batch_status(batch_id) for batch_id in batch_ids]

    def wait_batch(self, batch_id: str, timeout: float | None = None) -> bool:
        """Block until every member job is terminal; True if the whole
        batch finished in time."""
        batch = self._batch(batch_id)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for job_id in batch.job_ids:
            remaining: float | None = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not self.wait(job_id, timeout=remaining):
                return False
        return True

    # -- lifecycle -----------------------------------------------------

    def shutdown(self) -> None:
        """Stop the worker threads after their current job."""
        for _ in self._workers:
            self._tasks.put(None)
        for thread in self._workers:
            thread.join(timeout=30.0)
