"""Per-processor failure trace generation and platform event streams.

Following Section 4.3 of the paper:

- a *failure trace* is, per failure unit (processor or node), the sorted
  list of failure dates over a fixed horizon, obtained by sampling iid
  lifetimes from the failure distribution (a new lifetime starts at the
  end of each downtime);
- job start time ``t0`` is offset into the horizon so that processors are
  not synchronously "fresh" at job start;
- when varying the number of processors ``p``, the traces for a ``p``-unit
  job are the *prefix* of the traces generated for the largest platform,
  so results are coherent across ``p``.

A platform's traces are one flat, unit-major array of failure dates
(unit 0's dates, then unit 1's, ...) plus per-unit event counts, so
generating a platform and merging a job's units into one event stream
are whole-array operations: no step of the common path runs once per
unit.  The per-unit formulation they replace is the test oracle
``tests/traces_oracle.py``; both give the same arrays bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import FailureDistribution

# Anything accepted as an explicit trace seed: a plain int, an entropy
# list like ``[seed, trace_index]``, or a pre-built SeedSequence.
SeedLike = int | list[int] | np.random.SeedSequence

__all__ = [
    "generate_failure_times",
    "generate_platform_traces",
    "generate_rejuvenated_platform_traces",
    "PlatformTraces",
    "JobTraces",
]


def _renewal(
    dist: FailureDistribution,
    rng: np.random.Generator,
    t: float,
    horizon: float,
    downtime: float,
    batch: int,
) -> np.ndarray:
    """Failure dates up to ``horizon`` of a unit whose lifetime starts
    fresh at ``t``, drawn ``batch`` lifetimes at a time.

    Within a batch, failure k lands at t + sum(x_1..x_k) + (k-1) *
    downtime, a strictly increasing sequence, so the horizon crossing is
    a single searchsorted.
    """
    chunks: list[np.ndarray] = []
    while True:
        xs = np.asarray(dist.sample(rng, size=batch), dtype=float)
        fails = t + np.cumsum(xs) + downtime * np.arange(batch)
        cut = int(np.searchsorted(fails, horizon, side="right"))
        chunks.append(fails[:cut])
        if cut < batch:
            return np.concatenate(chunks)
        t = fails[-1] + downtime


def generate_failure_times(
    dist: FailureDistribution,
    horizon: float,
    rng: np.random.Generator,
    downtime: float = 0.0,
) -> np.ndarray:
    """Failure dates of one unit over ``[0, horizon]``.

    The unit starts a fresh lifetime at time 0; after a failure at ``t``
    the next lifetime starts at ``t + downtime``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    batch = _trace_batch_size(dist, horizon, downtime)
    return _renewal(dist, rng, 0.0, horizon, downtime, batch)


def _trace_batch_size(dist: FailureDistribution, horizon: float, downtime: float) -> int:
    """Samples per unit expected to cover ``horizon`` with ~25% headroom."""
    mean = max(dist.mean(), 1e-9)
    return max(16, int(horizon / (mean + downtime) * 1.25) + 16)


def generate_platform_traces(
    dist: FailureDistribution,
    n_units: int,
    horizon: float,
    downtime: float = 0.0,
    seed: SeedLike = 0,
) -> "PlatformTraces":
    """Independent traces for ``n_units`` failure units, vectorized.

    All first-pass inter-arrival samples of the whole platform are drawn
    in **one** ``(n_units, batch)`` call on a generator seeded directly
    from ``numpy.random.SeedSequence(seed)``.  Because NumPy fills the
    array row-major from a sequential stream and ``batch`` depends only
    on ``(dist, horizon, downtime)``, row ``i`` is the same values
    whatever ``n_units`` is — traces stay *prefix-coherent*: the traces
    of a ``p``-unit job are the first ``p`` rows of any larger platform
    (paper Section 4.3).  One boolean mask over the failure-date matrix
    reads every unit's dates within the horizon out into the flat
    unit-major array.

    The rare unit whose batch does not reach the horizon (the sizing
    gives ~25% headroom) is continued from its own spawned child stream
    ``SeedSequence(seed).spawn(...)[i]``, which also depends only on the
    unit index — coherence and reproducibility are preserved exactly.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    batch = _trace_batch_size(dist, horizon, downtime)
    xs = np.asarray(dist.sample(rng, size=(n_units, batch)), dtype=float)
    # failure k of a unit lands at sum(x_1..x_k) + (k-1) * downtime
    fails = np.cumsum(xs, axis=1) + downtime * np.arange(batch)[None, :]
    # rows are increasing, so each row's dates within the horizon are a
    # prefix of it and the row-major mask reads them out unit-major
    inside = fails <= horizon
    counts = np.count_nonzero(inside, axis=1).astype(np.int64)
    times = fails[inside]
    short = np.flatnonzero(counts == batch)
    if short.size:
        # batch exhausted before the horizon: continue each such unit's
        # renewal process from its dedicated child stream, and insert
        # the tail after the unit's head in the flat array
        children = ss.spawn(n_units)
        tails = [
            _renewal(
                dist,
                np.random.default_rng(children[i]),
                float(fails[i, -1]) + downtime,
                horizon,
                downtime,
                batch,
            )
            for i in short
        ]
        sizes = np.array([tail.size for tail in tails], dtype=np.int64)
        ends = np.cumsum(counts)[short]
        times = np.insert(times, np.repeat(ends, sizes), np.concatenate(tails))
        counts[short] += sizes
    return PlatformTraces._from_flat(times, counts, horizon, downtime)


def generate_rejuvenated_platform_traces(
    dist: FailureDistribution,
    n_units: int,
    horizon: float,
    downtime: float = 0.0,
    seed: SeedLike = 0,
) -> "PlatformTraces":
    """Traces under the *all-processor rejuvenation* model (Appendix B.1).

    Rejuvenating every processor after each failure makes platform
    failures a renewal process with the ``min``-of-iid law, so the whole
    platform is represented by a single macro failure unit.  (For
    Exponential lifetimes this is statistically identical to
    :func:`generate_platform_traces` — memorylessness — which is why the
    paper only simulates both options in that case.)
    """
    from repro.distributions.minimum import MinOfIID

    law = MinOfIID(dist, n_units) if n_units > 1 else dist
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    times = generate_failure_times(law, horizon, rng, downtime)
    return PlatformTraces([times], horizon=horizon, downtime=downtime)


@dataclass
class JobTraces:
    """Merged failure events restricted to the units a job uses.

    ``times`` is sorted ascending; ``units[i]`` identifies the failing
    unit of event ``i``.  Events beyond the recorded horizon are treated
    as non-existent (failure-free tail): size horizons generously.
    """

    times: np.ndarray
    units: np.ndarray
    n_units: int
    downtime: float
    horizon: float

    def next_event_index(self, t: float) -> int:
        """Index of the first event strictly after ``t`` (may be len)."""
        return int(np.searchsorted(self.times, t, side="right"))

    def lifetime_starts_at(self, t0: float) -> np.ndarray:
        """Per-unit lifetime start times as of ``t0``.

        A unit that failed last at ``tf < t0`` has its current lifetime
        starting at ``tf + downtime`` — possibly *after* ``t0`` when the
        downtime is still in progress at submission; a unit that never
        failed started at time 0 (beginning of the horizon).
        """
        starts = np.zeros(self.n_units)
        before = self.times < t0
        # a unit's latest failure before t0 wins; max does not round, so
        # this is exact whatever order the events come in
        np.maximum.at(starts, self.units[before], self.times[before] + self.downtime)
        return starts


class PlatformTraces:
    """Failure traces of a full platform; jobs consume unit prefixes.

    ``times`` holds every unit's failure dates, unit-major (unit 0's
    sorted dates, then unit 1's, ...), and ``counts[i]`` is the number
    of dates of unit ``i``.
    """

    def __init__(self, per_unit: list[np.ndarray], horizon: float, downtime: float):
        arrays = [np.asarray(t, dtype=float) for t in per_unit]
        self.times = np.concatenate(arrays) if arrays else np.empty(0)
        self.counts = np.array([a.size for a in arrays], dtype=np.int64)
        self.horizon = float(horizon)
        self.downtime = float(downtime)

    @classmethod
    def _from_flat(
        cls, times: np.ndarray, counts: np.ndarray, horizon: float, downtime: float
    ) -> "PlatformTraces":
        traces = cls([], horizon, downtime)
        traces.times, traces.counts = times, counts
        return traces

    @property
    def n_units(self) -> int:
        return self.counts.size

    @property
    def per_unit(self) -> list[np.ndarray]:
        """Each unit's failure dates, as views into :attr:`times`."""
        ends = np.cumsum(self.counts).tolist()
        return [self.times[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def for_job(self, n_units: int) -> JobTraces:
        """Merged, sorted event stream of the first ``n_units`` units."""
        if not 1 <= n_units <= self.n_units:
            raise ValueError(
                f"job needs {n_units} units but platform has {self.n_units}"
            )
        counts = self.counts[:n_units]
        times = self.times[: int(counts.sum())]
        units = np.repeat(np.arange(n_units, dtype=np.int64), counts)
        order = np.argsort(times, kind="stable")
        return JobTraces(
            times=times[order],
            units=units[order],
            n_units=n_units,
            downtime=self.downtime,
            horizon=self.horizon,
        )
