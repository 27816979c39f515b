"""DPNextFailure (Algorithm 2): maximize expected work before the next
failure.

The NextFailure objective (Proposition 3) for chunk sizes
``omega_1..omega_K`` is

    E[W] = sum_i omega_i * prod_{j<=i} Psuc(omega_j + C | t_j),

where ``t_j`` is the failure-free time elapsed before chunk ``j`` starts.
With a time quantum ``u`` the optimal chunking is computed by a dynamic
program over states ``(x, n)`` — remaining work ``x*u`` and ``n`` chunks
already completed — because the elapsed time at a state is the function
``(X0 - x)*u + n*C`` of the state alone.

The same DP solves the sequential case (one age ``tau``) and the parallel
case (full platform state), because both reduce to a single collapsed
log-survival advance table (:class:`repro.core.state.SurvivalTable`).

The DP kernel, :func:`_solve_stacked`, solves several lattices of one
shape in one pass with a leading lane axis.  Every solve goes through
:func:`dp_next_failure_many`, which groups a batch of problems by shape
(the replans of :func:`repro.core.cache.cached_replans`);
:func:`dp_next_failure_parallel` is its one-problem call.  A result is
only the schedule and its value: the DP's choice table is a local of
the kernel, dropped once the schedule is rebuilt, so a memoized or
persisted replan costs its chunk array and two floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.state import PlatformState, SurvivalTable
from repro.distributions.base import FailureDistribution

__all__ = [
    "DPNextFailureResult",
    "dp_next_failure",
    "dp_next_failure_parallel",
    "dp_next_failure_many",
    "expected_work_of_schedule",
]


@dataclass
class DPNextFailureResult:
    """Optimal chunk schedule and its objective value.

    Attributes
    ----------
    chunks:
        Chunk sizes (seconds of work) in execution order, assuming every
        chunk succeeds.  ``sum(chunks) == x0 * u``.
    expected_work:
        The optimal ``E[W]``: expected work completed before the next
        platform failure.
    u:
        The time quantum used.
    """

    chunks: np.ndarray
    expected_work: float
    u: float

    @property
    def first_chunk(self) -> float:
        return float(self.chunks[0]) if self.chunks.size else 0.0


#: Most lanes one stacked kernel call solves.  On a Table 4 replan
#: (``x0 = 96``, ``n_cap = 97``; 2-vCPU host) a lane costs ~1.8 ms
#: alone, ~1.1 ms among 8, ~1.2 ms among 16 and ~1.3 ms among 30.
_STACK = 16


def _solve_stacked(
    tables: Sequence[SurvivalTable], x0: int, us: Sequence[float], n_cap: int
) -> list[DPNextFailureResult]:
    """Bottom-up DP over states (x remaining quanta, n chunks done), for
    several lattices of one shape at once (lane ``k``: ``tables[k]`` and
    quantum ``us[k]``).

    Vectorized over the lanes, the chunk choice ``i`` and the chunk
    count ``n`` for each remaining-work level ``x``; the survival
    lattice makes every probability exact regardless of how ``C``
    relates to ``u``.  The lane axis comes first and the lattices are
    transposed, so every operand is a slice (a view) with contiguous
    ``(n, a)`` rows.  Every element is the same expression as in a
    one-lane call and the chunk choice is the first maximum, so a
    lane's result does not depend on its neighbours.

    ``n_cap`` bounds the chunk-count dimension: states beyond it carry
    (essentially) zero survival probability, so their continuation value
    is taken as 0 — see :func:`_chunk_cap`.
    """
    # m2t[k, b, a] = tables[k].m2[a, b].  Value and choice are indexed
    # by the work done, a = x0 - x, so the successor values of a level
    # are the same forward slice as its lattice cells:
    # value[k, n, a] = optimal E[W] (seconds of work) from state
    # (x0 - a, n); only entries with n <= min(a, n_cap) are meaningful;
    # the row n_cap stays 0 (negligible-survival cutoff).
    # choice[k, n, a] is the best chunk in quanta; it only serves the
    # schedule rebuild.
    m2t = np.stack([table.m2.T for table in tables])
    lanes = m2t.shape[0]
    value = np.zeros((lanes, n_cap + 1, x0 + 1))
    choice = np.zeros((lanes, n_cap + 1, x0 + 1), dtype=np.int64)
    # work[k, i - 1] = i quanta of lane k
    work = np.arange(1, x0 + 1)[None, :] * np.asarray(us, dtype=float)[:, None]
    lane = np.arange(lanes)[:, None]
    for x in range(1, x0 + 1):
        a = x0 - x
        nn = min(a, n_cap - 1) + 1  # chunk counts n = 0..nn-1
        # vals[k, n, i-1] = exp(m2[a+i, n+1] - m2[a, n])
        #                   * (i*u + value[a+i, n+1])
        vals = m2t[:, 1 : nn + 1, a + 1 : a + x + 1] - m2t[:, :nn, a, None]
        np.exp(vals, out=vals)
        vals *= work[:, None, :x] + value[:, 1 : nn + 1, a + 1 : a + x + 1]
        best = np.argmax(vals, axis=2)
        value[:, :nn, a] = vals[lane, np.arange(nn), best]
        choice[:, :nn, a] = best + 1
    # Reconstruct each schedule along the all-success path from (x0, 0).
    results = []
    for row, u in enumerate(us):
        chunks = []
        x, n = x0, 0
        while x > 0:
            i = int(choice[row, n, x0 - x]) if n < n_cap else 0
            if i <= 0:
                # beyond the survival cutoff every choice is value-0; emit
                # the rest as one chunk (it will never be reached anyway)
                chunks.append(x * u)
                break
            chunks.append(i * u)
            x -= i
            n += 1
        results.append(
            DPNextFailureResult(
                chunks=np.asarray(chunks),
                expected_work=float(value[row, 0, 0]),
                u=u,
            )
        )
    return results


def dp_next_failure(
    work: float,
    checkpoint: float,
    dist: FailureDistribution,
    u: float,
    tau: float = 0.0,
) -> DPNextFailureResult:
    """Sequential DPNextFailure (Algorithm 2).

    Parameters
    ----------
    work:
        Remaining work ``omega`` in seconds (unit-speed processor).
    checkpoint:
        Checkpoint duration ``C``.
    dist:
        Failure inter-arrival distribution.
    u:
        Time quantum; ``work`` and ``checkpoint`` are rounded to the grid.
    tau:
        Time since the processor's last failure.
    """
    state = PlatformState([tau], dist)
    return dp_next_failure_parallel(work, checkpoint, state, u)


def _chunk_cap(
    state: PlatformState,
    checkpoint: float,
    x0: int,
    log_cutoff: float = -14.0,
) -> int:
    """Largest useful chunk-count index: once ``n`` checkpoints alone
    push the platform's log-survival below ``log_cutoff`` (~1e-6), the
    continuation value of any state is negligible and the DP can stop
    tracking the dimension.  Keeps the survival-lattice size proportional
    to the failure horizon instead of the work grid.

    The probe doubles ``n`` until it reaches ``x0`` or crosses the
    cutoff; every doubling candidate is evaluated in one batched
    ``log_psuc`` call and the first stopping point is picked.

    The cap binds only when checkpoints are long next to the platform
    MTBF: at ``--scale smoke`` it binds on 1,871 of the 6,972 DP solves
    of ``repro experiment fig7`` and on none of Tables 2-4 or Figures
    1-6.
    """
    cands = [1]
    while cands[-1] < x0:
        cands.append(cands[-1] * 2)
    logp = state.log_psuc(np.asarray(cands, dtype=float) * checkpoint)
    # first candidate with n >= x0 or log-survival at/below the cutoff
    stop = (np.asarray(cands) >= x0) | (logp <= log_cutoff)
    n = cands[int(np.argmax(stop))]
    return min(x0, n) + 1


def dp_next_failure_parallel(
    work: float,
    checkpoint: float,
    state: PlatformState,
    u: float,
) -> DPNextFailureResult:
    """Parallel DPNextFailure: same DP, platform survival state.

    ``state`` may be exact or compressed (see
    :meth:`repro.core.state.PlatformState.compress`); either way the DP
    cost is independent of the number of processors thanks to the
    collapsed advance table.
    """
    return dp_next_failure_many([(work, checkpoint, state, u)])[0]


def _lattice(
    work: float, checkpoint: float, state: PlatformState, u: float
) -> tuple[int, int]:
    """The DP's shape ``(x0, n_cap)``: work quanta and chunk-count cap."""
    if u <= 0:
        raise ValueError("quantum u must be positive")
    x0 = max(1, int(round(work / u)))
    return x0, _chunk_cap(state, checkpoint, x0)


def dp_next_failure_many(
    problems: Sequence[tuple[float, float, PlatformState, float]],
) -> list[DPNextFailureResult]:
    """:func:`dp_next_failure_parallel` of every ``(work, checkpoint,
    state, u)`` problem, each result bit-identical to its solve alone.

    Problems of one lattice shape ``(x0, n_cap)`` solve together, up to
    ``_STACK`` per :func:`_solve_stacked` call; shapes are never padded
    to match.  A group's survival tables are built just before its call,
    so at most ``_STACK`` tables are alive at once.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (work, checkpoint, state, u) in enumerate(problems):
        groups.setdefault(_lattice(work, checkpoint, state, u), []).append(i)
    results: list[DPNextFailureResult | None] = [None] * len(problems)
    for (x0, n_cap), members in groups.items():
        for lo in range(0, len(members), _STACK):
            lanes = members[lo : lo + _STACK]
            tables = [
                SurvivalTable.build(
                    problems[i][2], problems[i][3], problems[i][1],
                    na=x0, nb=n_cap + 1,
                )
                for i in lanes
            ]
            us = [problems[i][3] for i in lanes]
            for i, result in zip(lanes, _solve_stacked(tables, x0, us, n_cap)):
                results[i] = result
    return results


def expected_work_of_schedule(
    chunks,
    checkpoint: float,
    state: PlatformState,
) -> float:
    """Evaluate Proposition 3's closed form for an arbitrary schedule:

        E[W] = sum_i omega_i prod_{j<=i} Psuc(omega_j + C | t_j)

    Used by tests to check DP optimality against brute force, and by the
    truncation ablation (where it runs once per candidate schedule).

    The per-chunk products telescope: the cumulative success
    log-probability after chunk ``i`` is ``log Psuc(t_{i+1})`` with
    ``t_{i+1}`` the cumulative sum of ``omega_j + C``, so one batched
    ``log_psuc`` call over all chunk boundaries evaluates the schedule.
    Telescoping reassociates the floating-point accumulation, so this
    agrees with the incremental per-chunk product to rounding (~1e-15
    relative), not bit-for-bit.
    """
    chunks = np.asarray(chunks, dtype=float)
    if chunks.size == 0:
        return 0.0
    bounds = np.cumsum(chunks + checkpoint)
    log_prob = state.log_psuc(bounds)
    return float(np.sum(chunks * np.exp(log_prob)))
