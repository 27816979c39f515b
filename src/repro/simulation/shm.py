"""Shared-memory publication of a scenario's traces and compiled ensemble.

The parallel runner's workers used to *regenerate* every trace batch
they were handed (and recompile a per-batch :class:`TraceEnsemble`) —
once per phase, so a trace could be rebuilt three times per scenario.
This module moves that work to the parent, once:

1. **Publish** (:func:`publish_scenario`): the parent generates all
   traces, compiles one scenario-wide ensemble, and copies the arrays
   into a single ``multiprocessing.shared_memory`` segment.  Only the
   picklable :class:`ScenarioLayout` (segment name + per-array
   offset/shape/dtype + scenario constants) travels to workers.
2. **Attach** (:func:`attach_scenario`): a worker maps the segment,
   copies out the rows its work unit needs — per-trace
   :class:`~repro.traces.generation.JobTraces` slices and a row-subset
   of the ensemble — and detaches immediately.  Row-slicing the global
   ensemble is replay-equivalent to compiling the subset alone: padding
   columns hold ``+inf`` failure times and never influence a replay.

Lifecycle: the parent owns the segment and unlinks it when the scenario
finishes (``ScenarioPublication.close``); workers never unlink.  On
Python < 3.13 attaching registers the segment with the process's
``resource_tracker``, which would unlink it when the *worker* exits, so
the attach path unregisters it (``track=False`` where available).

Failure anywhere — segment creation (size limits, permissions), attach,
reconstruction — must never break a run: callers fall back to per-task
regeneration, which is bit-identical by the determinism anchor
(trace ``i`` is a pure function of ``(platform, horizon, seed, i)``).
Shared memory changes IPC volume only, never results.

Cross-process memo sharing
--------------------------
The second IPC concern of a ``--jobs N`` run is the DPNextFailure
replan memo (:mod:`repro.core.cache`): workers inherit the parent's
memo at fork time but then populate *private* copies — N workers solve
N copies of every replan signature the parent has never seen.  The
memo-delta helpers here close that loop at work-unit exit:

1. a worker snapshots its memo keys before running a unit
   (:func:`memo_snapshot`), and ships the entries it *added* back with
   the unit result (:func:`export_memo_delta` — replan results are a
   chunk array plus scalars, so deltas are cheap to pickle);
2. the parent folds every delta into its own memo
   (:func:`merge_memo_delta`), so the pools of later phases fork
   already warm, and in-process callers (the daemon, subsequent
   scenarios) hit immediately.

Within a single phase, workers additionally share solves through the
persistent disk tier (:mod:`repro.core.diskcache`): the first worker
to solve a signature persists it and every other worker's memo miss
becomes a disk hit.  Both channels move bit-identical result objects
around — the memo key captures the full solve input — so sharing never
changes results, only who computes them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.simulation.batch import TraceEnsemble
from repro.traces.generation import JobTraces

__all__ = [
    "ScenarioLayout",
    "ScenarioPublication",
    "AttachedScenario",
    "publish_scenario",
    "attach_scenario",
    "memo_snapshot",
    "export_memo_delta",
    "merge_memo_delta",
]


@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ScenarioLayout:
    """Picklable recipe a worker needs to attach to a publication."""

    shm_name: str
    specs: dict[str, _ArraySpec]
    n_units: int
    downtime: float
    horizon: float
    recovery: float
    t0: float


class ScenarioPublication:
    """Parent-side handle: owns the segment until :meth:`close`."""

    def __init__(self, shm: shared_memory.SharedMemory, layout: ScenarioLayout):
        self._shm = shm
        self.layout = layout

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes (sweep/runner stats:
        with grouped scenarios this is paid once per group, not once
        per grid point)."""
        return self._shm.size

    def close(self) -> None:
        """Release and remove the segment (idempotent)."""
        with contextlib.suppress(Exception):
            self._shm.close()
        with contextlib.suppress(Exception):
            self._shm.unlink()


def publish_scenario(
    traces: Sequence[JobTraces],
    ensemble: TraceEnsemble,
    n_units: int,
    downtime: float,
    horizon: float,
    recovery: float,
    t0: float,
) -> ScenarioPublication:
    """Copy a scenario's trace set and its compiled ensemble into one
    shared-memory segment; returns the owning handle."""
    if not traces:
        raise ValueError("cannot publish an empty trace set")
    arrays: dict[str, np.ndarray] = {}
    sizes = np.asarray([tr.times.size for tr in traces], dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    arrays["offsets"] = offsets
    arrays["times"] = np.concatenate(
        [np.asarray(tr.times, dtype=float) for tr in traces]
    )
    arrays["units"] = np.concatenate(
        [np.asarray(tr.units, dtype=np.int64) for tr in traces]
    )
    arrays["t_start"] = np.ascontiguousarray(ensemble.t_start, dtype=float)
    arrays["fail"] = np.ascontiguousarray(ensemble.fail, dtype=float)
    arrays["resume"] = np.ascontiguousarray(ensemble.resume, dtype=float)
    arrays["cumfail"] = np.ascontiguousarray(ensemble.cumfail, dtype=np.int64)

    total = sum(arr.nbytes for arr in arrays.values())
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        specs: dict[str, _ArraySpec] = {}
        offset = 0
        for name, arr in arrays.items():
            dest: np.ndarray = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
            )
            dest[...] = arr
            specs[name] = _ArraySpec(
                offset=offset, shape=tuple(arr.shape), dtype=str(arr.dtype)
            )
            offset += arr.nbytes
            del dest  # release the buffer view before any close()
        layout = ScenarioLayout(
            shm_name=shm.name,
            specs=specs,
            n_units=int(n_units),
            downtime=float(downtime),
            horizon=float(horizon),
            recovery=float(recovery),
            t0=float(t0),
        )
        return ScenarioPublication(shm, layout)
    except Exception:
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()
        raise


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without handing ownership to this process's resource
    tracker (the parent owns the unlink).

    On Python < 3.13 there is no ``track=False``, and forked workers
    *share* the parent's tracker process — an attach-then-unregister
    would erase the parent's own registration.  Instead the registration
    is suppressed at the source: ``resource_tracker.register`` is
    swapped for a no-op for the duration of the attach (workers are
    single-threaded at this point)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original(name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class AttachedScenario:
    """Worker-side view of a publication.

    Accessors *copy* out of the segment, so the attachment can (and
    should) be closed as soon as the needed rows are extracted —
    usually via the context-manager form.
    """

    def __init__(self, layout: ScenarioLayout):
        self.layout = layout
        self._shm = _attach_segment(layout.shm_name)
        try:
            self._arrays = {
                name: np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=self._shm.buf,
                    offset=spec.offset,
                )
                for name, spec in layout.specs.items()
            }
        except Exception:
            # a corrupt layout (bad dtype/shape/offset) must not leak
            # the attachment: close before propagating
            self._shm.close()
            raise

    def __enter__(self) -> "AttachedScenario":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def job_traces(self, index: int) -> JobTraces:
        """Reconstruct trace ``index`` (copies its slice)."""
        offsets = self._arrays["offsets"]
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        layout = self.layout
        return JobTraces(
            times=np.array(self._arrays["times"][lo:hi]),
            units=np.array(self._arrays["units"][lo:hi]),
            n_units=layout.n_units,
            downtime=layout.downtime,
            horizon=layout.horizon,
        )

    def ensemble_rows(self, indices: Sequence[int]) -> TraceEnsemble:
        """Row-subset of the published ensemble (copies the rows)."""
        rows = np.asarray(indices, dtype=np.int64)
        return TraceEnsemble.from_arrays(
            t_start=self._arrays["t_start"][rows],
            fail=self._arrays["fail"][rows],
            resume=self._arrays["resume"][rows],
            cumfail=self._arrays["cumfail"][rows],
            recovery=self.layout.recovery,
            t0=self.layout.t0,
        )

    def close(self) -> None:
        """Drop the buffer views and detach (idempotent; never unlinks)."""
        self._arrays.clear()
        with contextlib.suppress(Exception):
            self._shm.close()


def attach_scenario(layout: ScenarioLayout) -> AttachedScenario:
    """Attach to a published scenario (worker side)."""
    return AttachedScenario(layout)


# ----------------------------------------------------------------------
# cross-process replan-memo sharing (delta merge at work-unit exit)
# ----------------------------------------------------------------------


def memo_snapshot() -> frozenset:
    """The worker's current replan-memo key set (taken before a work
    unit runs, so the delta afterwards is exactly what the unit added)."""
    from repro.core.cache import get_replan_memo

    return get_replan_memo().snapshot_keys()


def export_memo_delta(before: frozenset) -> list:
    """The ``(key, DPNextFailureResult)`` pairs this process's memo
    gained since ``before`` — the worker's contribution to the shared
    memo, shipped back with its work-unit result."""
    from repro.core.cache import get_replan_memo

    return get_replan_memo().export_entries(exclude=before)


def merge_memo_delta(delta: list) -> int:
    """Fold a worker's memo delta into this process's memo (parent
    side); returns how many entries were new.  Merged entries carry the
    bit-identical result a local solve would have produced (the memo
    key captures the full solve input), so merging never changes
    results — later phases and scenarios just start warm."""
    from repro.core.cache import get_replan_memo

    return get_replan_memo().merge_entries(delta)
