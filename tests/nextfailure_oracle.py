"""Reference DPNextFailure kernel: the slow paths production dropped.

Production (:mod:`repro.core.dp_nextfailure`, :mod:`repro.core.state`)
tabulates only the reachable half of the survival lattice with one
batched kernel call, solves with slices of it and keeps no choice
table in its result.  This module keeps the original forms as a test
oracle, so the identity gates compare against a genuinely different
code path:

- :func:`survival_lattice`: the full ``(na+1, nb+1)`` lattice, one
  scalar ``logsf`` per (processor, cell), accumulated in processor
  order;
- :func:`chunk_cap`: the doubling probe, one scalar ``log_psuc`` per
  step;
- :func:`solve`: the bottom-up DP with fancy-index copies of the
  lattice and a full choice table;
- :func:`dp_next_failure_parallel`: the three chained, a drop-in for the
  production function;
- :func:`expected_work_of_schedule`: Proposition 3 as the incremental
  per-chunk product.

``conftest.bypass_solve_caches`` routes every uncached DPNextFailure
table solve through :func:`dp_next_failure_parallel`.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp_nextfailure import DPNextFailureResult
from repro.core.state import PlatformState


def survival_lattice(
    state: PlatformState, u: float, c: float, na: int, nb: int
) -> np.ndarray:
    """``m2[a, b] = sum_i w_i logsf(tau_i + a*u + b*c)`` over the whole
    lattice, floored 700 below its start cell like the production table
    (at -700 when the start is not finite)."""
    grid = (
        np.arange(na + 1, dtype=float)[:, None] * u
        + np.arange(nb + 1, dtype=float)[None, :] * c
    )
    taus, weights, dist = state.taus, state.weights, state.dist
    m2 = np.empty_like(grid)
    for a in range(na + 1):
        for b in range(nb + 1):
            acc = 0.0
            for i in range(taus.size):
                acc += weights[i] * float(dist.logsf(taus[i] + grid[a, b]))
            m2[a, b] = acc
    start = m2[0, 0]
    return np.maximum(m2, start - 700.0 if np.isfinite(start) else -700.0)


def chunk_cap(
    state: PlatformState, checkpoint: float, x0: int, log_cutoff: float = -14.0
) -> int:
    """Double ``n`` until it reaches ``x0`` or ``n`` checkpoints push the
    log-survival to ``log_cutoff``; one scalar call per step."""
    n = 1
    while n < x0 and float(state.log_psuc(n * checkpoint)) > log_cutoff:
        n *= 2
    return min(x0, n) + 1


def solve(
    m2: np.ndarray, x0: int, u: float, n_cap: int
) -> tuple[np.ndarray, float]:
    """``(chunks, expected_work)`` of the DP over the lattice ``m2``,
    built from fancy-index copies of it."""
    value = np.zeros((x0 + 1, n_cap + 1))
    choice = np.zeros((x0 + 1, n_cap + 1), dtype=np.int64)
    for x in range(1, x0 + 1):
        a = x0 - x
        ivec = np.arange(1, x + 1)
        nvec = np.arange(0, min(x0 - x, n_cap - 1) + 1)
        # logp[n, i] = m2[a+i, n+1] - m2[a, n]
        logp = m2[a + ivec][:, nvec + 1].T - m2[a, nvec][:, None]
        succ = value[x - ivec][:, nvec + 1].T  # (n, i)
        vals = np.exp(logp) * (ivec[None, :] * u + succ)
        best = np.argmax(vals, axis=1)
        value[x, nvec] = vals[nvec, best]
        choice[x, nvec] = best + 1
    chunks = []
    x, n = x0, 0
    while x > 0:
        if n >= n_cap or choice[x, n] <= 0:
            chunks.append(x * u)
            break
        i = int(choice[x, n])
        chunks.append(i * u)
        x -= i
        n += 1
    return np.asarray(chunks), float(value[x0, 0])


def dp_next_failure_parallel(
    work: float, checkpoint: float, state: PlatformState, u: float
) -> DPNextFailureResult:
    """Reference for :func:`repro.core.dp_nextfailure.dp_next_failure_parallel`."""
    if u <= 0:
        raise ValueError("quantum u must be positive")
    x0 = max(1, int(round(work / u)))
    n_cap = chunk_cap(state, checkpoint, x0)
    m2 = survival_lattice(state, u, checkpoint, na=x0, nb=n_cap + 1)
    chunks, expected_work = solve(m2, x0, u, n_cap)
    return DPNextFailureResult(chunks=chunks, expected_work=expected_work, u=u)


def expected_work_of_schedule(
    chunks, checkpoint: float, state: PlatformState
) -> float:
    """Proposition 3, one ``log_psuc`` call per chunk, products
    accumulated chunk by chunk."""
    total = 0.0
    log_prob = 0.0
    elapsed = 0.0
    for w in np.asarray(chunks, dtype=float):
        log_prob += float(state.log_psuc(w + checkpoint, advance=elapsed))
        elapsed += w + checkpoint
        total += w * np.exp(log_prob)
    return float(total)
