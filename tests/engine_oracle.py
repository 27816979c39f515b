"""Reference simulator: slow, transparent, used as a differential-test
oracle for the optimized engine.

This implementation advances time microscopically through an explicit
per-unit state machine — no merged event stream, no index arithmetic —
so its correctness can be verified by inspection.  The test suite runs
both engines over random scenarios and requires bit-identical makespans
(`tests/test_differential.py`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulation.results import SimulationResult
from repro.traces.generation import JobTraces


class _Unit:
    """One failure unit: its future failure dates and downtime state."""

    def __init__(self, times: np.ndarray, downtime: float):
        self.times = list(map(float, times))
        self.downtime = downtime
        self.up_since = 0.0  # start of current lifetime
        self.down_until = -math.inf

    def catch_up(self, t: float) -> None:
        """Consume every failure at or before ``t`` (idle periods)."""
        while self.times and self.times[0] <= t:
            self.fail(self.times[0])

    def next_failure(self) -> float:
        """Next *live* failure date (skips dates inside own downtime)."""
        while self.times and self.times[0] < self.up_since:
            self.times.pop(0)
        return self.times[0] if self.times else math.inf

    def fail(self, when: float) -> None:
        self.times.pop(0)
        self.down_until = when + self.downtime
        self.up_since = self.down_until

    def available_at(self, t: float) -> bool:
        return t >= self.down_until


def simulate_job_reference(
    policy,
    work_time: float,
    traces: JobTraces,
    checkpoint: float,
    recovery: float,
    dist,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> SimulationResult:
    """Drop-in equivalent of :func:`repro.simulation.simulate_job`."""
    from repro.simulation.engine import JobContext

    units = []
    for u in range(traces.n_units):
        mask = traces.units == u
        units.append(_Unit(traces.times[mask], traces.downtime))
    # replay history before t0
    for unit in units:
        while unit.times and unit.times[0] < t0:
            unit.fail(unit.times[0])
    t = max([t0] + [u.down_until for u in units])

    def lifetime_starts() -> np.ndarray:
        return np.array([u.up_since for u in units])

    ctx = JobContext(
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=traces.downtime,
        dist=dist,
        work_time=work_time,
        n_units=traces.n_units,
        platform_mtbf=platform_mtbf,
        t0=t0,
        time=t,
        _lifetime_start=lifetime_starts(),
    )
    policy.setup(ctx)

    def outage_and_recovery(first_fail: float, failing_idx: int) -> tuple[float, int]:
        """Process a failure, its cascades and the (restartable)
        recovery; return (time computing can resume, failures seen)."""
        n_fail = 1
        units[failing_idx].fail(first_fail)
        while True:
            # all units must be up, simultaneously, for R seconds
            start = max(u.down_until for u in units)
            # any live failure in (start, start + R] interrupts recovery;
            # failures before `start` on a down unit cascade the outage
            interrupted = False
            for i, u in enumerate(units):
                nf = u.next_failure()
                if nf <= start + recovery:
                    u.fail(nf)
                    n_fail += 1
                    interrupted = True
                    break
            if not interrupted:
                return start + recovery, n_fail

    remaining = work_time
    n_failures = 0
    n_checkpoints = 0
    n_attempts = 0
    chunk_min, chunk_max = math.inf, 0.0
    while remaining > 1e-6:
        ctx.time = t
        ctx._lifetime_start = lifetime_starts()
        w = float(policy.next_chunk(remaining, ctx))
        w = min(w, remaining)
        chunk_min = min(chunk_min, w)
        chunk_max = max(chunk_max, w)
        n_attempts += 1
        end = t + w + checkpoint
        # first live failure during the attempt, across units
        fail_time, fail_idx = math.inf, -1
        for i, u in enumerate(units):
            nf = u.next_failure()
            if t <= nf < end and nf < fail_time:
                fail_time, fail_idx = nf, i
        if fail_idx < 0:
            t = end
            remaining -= w
            n_checkpoints += 1
        else:
            t, seen = outage_and_recovery(fail_time, fail_idx)
            n_failures += seen
            ctx.time = t
            ctx._lifetime_start = lifetime_starts()
            policy.on_failure(ctx)
        if t - t0 > max_makespan:
            return SimulationResult(
                makespan=math.inf,
                work_time=work_time,
                n_failures=n_failures,
                n_checkpoints=n_checkpoints,
                n_attempts=n_attempts,
                completed=False,
            )
    return SimulationResult(
        makespan=t - t0,
        work_time=work_time,
        n_failures=n_failures,
        n_checkpoints=n_checkpoints,
        n_attempts=n_attempts,
        chunk_min=chunk_min if n_attempts else math.nan,
        chunk_max=chunk_max if n_attempts else math.nan,
    )
