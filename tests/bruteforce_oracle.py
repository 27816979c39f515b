"""Reference solvers: exhaustive and analytic baselines used to verify
the dynamic programs.

- :func:`enumerate_chunkings`: every composition of a quantized workload.
- :func:`brute_force_next_failure`: exact NextFailure optimum by
  enumeration (exponential in the grid size — test scale only).
- :func:`expected_makespan_of_chunks`: closed-form expected makespan of
  an *arbitrary* chunk sequence under Exponential failures (the
  telescoped per-chunk form from Theorem 1's proof), which lets tests
  check DPMakespan against enumeration too.
- :func:`brute_force_makespan`: exact Makespan optimum for Exponential
  failures by enumeration.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from repro.core.dp_nextfailure import expected_work_of_schedule
from repro.core.state import PlatformState
from repro.core.theory import expected_trec


def enumerate_chunkings(n_quanta: int, u: float) -> Iterator[list[float]]:
    """All ``2^(n-1)`` ordered compositions of ``n_quanta * u`` work."""
    if n_quanta < 1:
        raise ValueError("need at least one quantum")
    for cuts in itertools.product((0, 1), repeat=n_quanta - 1):
        chunks, size = [], 1
        for c in cuts:
            if c:
                chunks.append(size * u)
                size = 1
            else:
                size += 1
        chunks.append(size * u)
        yield chunks


def brute_force_next_failure(
    n_quanta: int, u: float, checkpoint: float, state: PlatformState
) -> tuple[float, list[float]]:
    """Exact NextFailure optimum over every grid chunking."""
    best_val, best = -1.0, None
    for chunks in enumerate_chunkings(n_quanta, u):
        val = expected_work_of_schedule(chunks, checkpoint, state)
        if val > best_val:
            best_val, best = val, chunks
    return best_val, best


def expected_makespan_of_chunks(
    chunks, lam: float, checkpoint: float, downtime: float, recovery: float
) -> float:
    """Expected makespan of a fixed chunk sequence, Exponential(lam):

        E[T] = (1/lam + E[Trec]) * sum_i (e^{lam (w_i + C)} - 1)

    (each chunk retried until success; memorylessness decouples chunks).
    """
    chunks = np.asarray(chunks, dtype=float)
    factor = 1.0 / lam + expected_trec(lam, downtime, recovery)
    return float(factor * np.sum(np.expm1(lam * (chunks + checkpoint))))


def brute_force_makespan(
    n_quanta: int,
    u: float,
    lam: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
) -> tuple[float, list[float]]:
    """Exact Makespan optimum over every grid chunking (Exponential)."""
    best_val, best = math.inf, None
    for chunks in enumerate_chunkings(n_quanta, u):
        val = expected_makespan_of_chunks(
            chunks, lam, checkpoint, downtime, recovery
        )
        if val < best_val:
            best_val, best = val, chunks
    return best_val, best
