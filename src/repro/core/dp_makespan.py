"""DPMakespan (Algorithm 1): minimize expected makespan for arbitrary
failure distributions (sequential jobs).

State space (Proposition 2): remaining work ``x`` quanta, a flag telling
whether a failure has occurred yet, and a grid offset ``y`` giving the
current age (``tau0 + y*u`` before the first failure, ``R + y*u`` after a
recovery — the age right after a successful recovery is exactly ``R``).
Choosing chunk ``i`` from a state with age ``tau`` yields (Proposition 1):

    V = min_i [ P_i (i*u + C + V_succ)
                + (1 - P_i) (E[Tlost(i*u + C | tau)] + E[Trec] + V_fail) ]

with ``P_i = Psuc(i*u + C | tau)``; the success successor keeps the
plane and advances ``y`` by ``i + C/u``; the failure successor is always
the *anchor* state ``(x, post-failure, y=0)``.  The anchor's failure
successor is itself; for a fixed choice the fixed point solves in closed
form:

    V = i*u + C + V_succ + ((1 - P_i)/P_i) (E[Tlost] + E[Trec]).

Anchors are computed in increasing ``x`` (success strictly decreases
``x``), which makes the whole computation a single bottom-up sweep.  All
per-state quantities (``Psuc``, ``E[Tlost]``) come from precomputed
survival and integrated-survival tables on the quantum grid, so the
solver is fully vectorized; total cost matches the paper's
``O((W/u)^3 (1 + C/u))`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import FailureDistribution

__all__ = ["DPMakespanResult", "dp_makespan", "expected_trec_general"]

# exp(-700) ~ 1e-304: survival floor, relative to a plane's start,
# avoiding inf - inf
_LOG_FLOOR = -700.0


def expected_trec_general(dist: FailureDistribution, d: float, r: float) -> float:
    """``E[Trec]`` for any distribution (Proposition 1):

        E[Trec] = D + R + ((1 - Psuc(R|0)) / Psuc(R|0)) (D + E[Tlost(R|0)])
    """
    psuc_r = float(dist.psuc(r, 0.0))
    if psuc_r <= 0:
        raise ValueError("recovery can never succeed under this distribution")
    tlost_r = float(dist.expected_tlost(r, 0.0))
    return d + r + (1.0 - psuc_r) / psuc_r * (d + tlost_r)


class _Plane:
    """Per-plane survival tables: ``S(base + z*u)`` and its integral.

    Every quantity the DP reads is a ratio of survivals on one plane, so
    the tables are taken relative to the plane's start ``S(base)``: the
    log floor sits 700 below ``log S(base)`` and ``s`` is
    ``S(base + z*u) / S(base)``.  A public ``tau0`` may be old enough
    that ``log S(tau0)`` itself is below -700; absolute tables would
    then floor or underflow every cell.  With ``S(base) = 1`` (the
    policy's ``tau0 = 0``) both forms are the same bits.
    """

    def __init__(self, dist: FailureDistribution, base: float, u: float, n: int):
        grid = base + np.arange(n + 1, dtype=float) * u
        log_s = dist.logsf(grid)
        start = log_s[0] if np.isfinite(log_s[0]) else 0.0
        self.log_s = np.maximum(log_s, start + _LOG_FLOOR)
        s = np.exp(self.log_s - start)
        self.s = s
        # CS[z] = integral of s over [0, z*u] (trapezoid)
        self.cs = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * u)])

    def psuc(self, y: int, deltas: np.ndarray) -> np.ndarray:
        return np.exp(self.log_s[y + deltas] - self.log_s[y])

    def tlost(self, y: int, deltas: np.ndarray, u: float) -> np.ndarray:
        """``E[Tlost(delta*u | base + y*u)]`` for each delta."""
        widths = deltas * u
        s_end = self.s[y + deltas]
        num = (self.cs[y + deltas] - self.cs[y]) - widths * s_end
        den = self.s[y] - s_end
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 1e-300, num / np.maximum(den, 1e-300), widths / 2.0)
        return np.clip(out, 0.0, widths)

    def psuc_grid(self, ys: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """:meth:`psuc` for a whole block of ``y`` rows at once; each
        element is the same two float operations as the scalar method."""
        return np.exp(
            self.log_s[ys[:, None] + deltas[None, :]] - self.log_s[ys][:, None]
        )

    def tlost_grid(
        self, ys: np.ndarray, deltas: np.ndarray, u: float
    ) -> np.ndarray:
        """:meth:`tlost` for a whole block of ``y`` rows at once."""
        widths = deltas * u
        idx = ys[:, None] + deltas[None, :]
        s_end = self.s[idx]
        num = (self.cs[idx] - self.cs[ys][:, None]) - widths[None, :] * s_end
        den = self.s[ys][:, None] - s_end
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                den > 1e-300,
                num / np.maximum(den, 1e-300),
                widths[None, :] / 2.0,
            )
        return np.clip(out, 0.0, widths[None, :])


@dataclass
class DPMakespanResult:
    """Expected-makespan value and a queryable optimal policy."""

    expected_makespan: float
    first_chunk: float
    u: float
    tau0: float
    recovery: float
    _v_pre: np.ndarray
    _c_pre: np.ndarray
    _v_post: np.ndarray
    _c_post: np.ndarray

    def chunk_for(self, remaining_work: float, tau: float, failed_before: bool) -> float:
        """Optimal next chunk (seconds of work) for a runtime state.

        ``tau`` is the current processor age: ``tau0`` plus the elapsed
        grid time before the first failure, and the time since the last
        failure (``R`` right after a recovery) afterwards.
        """
        x = int(round(remaining_work / self.u))
        if x <= 0:
            return 0.0
        x = min(x, self._c_pre.shape[0] - 1)
        if failed_before:
            y = int(round((tau - self.recovery) / self.u))
            table = self._c_post
        else:
            y = int(round((tau - self.tau0) / self.u))
            table = self._c_pre
        y = int(np.clip(y, 0, table.shape[1] - 1))
        chunk = int(table[x, y])
        if chunk <= 0:
            # unreachable / uncomputed grid corner: fall back to whole work
            chunk = x
        return chunk * self.u


# Block the y dimension so the (y, i) value grid of one x level stays
# cache-resident; 256k float64 elements = 2 MiB per intermediate array.
_Y_BLOCK_ELEMS = 262144


def dp_makespan(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    dist: FailureDistribution,
    u: float,
    tau0: float = 0.0,
) -> DPMakespanResult:
    """Solve Makespan by Algorithm 1 on a quantum-``u`` grid.

    ``checkpoint`` and ``recovery`` are rounded to the grid (at least one
    quantum each).  Cost grows as ``(work/u)^3``, matching Proposition 2 —
    keep ``work/u`` in the low hundreds.

    Each plane's whole ``y`` range is swept in blocked 2-D ``(y, i)``
    operations; the per-element float operations are the same as the
    ``y``-at-a-time reference loop (``tests/dpmakespan_oracle.py``), so
    both build identical tables.
    """
    if u <= 0:
        raise ValueError("quantum u must be positive")
    x0 = max(1, int(round(work / u)))
    c_q = max(1, int(round(checkpoint / u)))
    r_eff = recovery
    trec = expected_trec_general(dist, downtime, r_eff)

    # Largest y we may ever index: every success adds i + c_q with
    # sum(i) <= x0, plus the lookahead i + c_q of the next attempt.
    y_max = x0 * (1 + c_q) + c_q + 1
    post = _Plane(dist, r_eff, u, y_max + c_q + 1)
    pre = _Plane(dist, tau0, u, y_max + c_q + 1)

    v_post = np.zeros((x0 + 1, y_max + 1))
    c_post = np.zeros((x0 + 1, y_max + 1), dtype=np.int64)
    v_pre = np.zeros((x0 + 1, y_max + 1))
    c_pre = np.zeros((x0 + 1, y_max + 1), dtype=np.int64)

    for x in range(1, x0 + 1):
        ivec = np.arange(1, x + 1)
        deltas = ivec + c_q
        widths = deltas * u
        reach = (x0 - x) * (1 + c_q) + c_q  # largest reachable y at this x

        # ---- anchor (x, post-failure, y=0): closed-form fixed point ----
        p = np.clip(post.psuc(0, deltas), 1e-300, 1.0)
        tl = post.tlost(0, deltas, u)
        vsucc = v_post[x - ivec, deltas]
        vals = widths + vsucc + (1.0 - p) / p * (tl + trec)
        best = int(np.argmin(vals))
        v_post[x, 0] = vals[best]
        c_post[x, 0] = best + 1
        anchor = v_post[x, 0]

        # ---- both planes, all y rows at once, in blocks ----
        block = max(1, _Y_BLOCK_ELEMS // x)
        xcols = x - ivec
        for plane, y_lo, v, c in (
            (post, 1, v_post, c_post),
            (pre, 0, v_pre, c_pre),
        ):
            for start in range(y_lo, reach + 1, block):
                ys = np.arange(start, min(start + block, reach + 1))
                p = np.clip(plane.psuc_grid(ys, deltas), 1e-300, 1.0)
                tl = plane.tlost_grid(ys, deltas, u)
                vsucc = v[xcols[None, :], ys[:, None] + deltas[None, :]]
                vals = p * (widths[None, :] + vsucc) + (1.0 - p) * (
                    tl + trec + anchor
                )
                best = np.argmin(vals, axis=1)
                rows = np.arange(ys.size)
                v[x, ys] = vals[rows, best]
                c[x, ys] = best + 1

    return DPMakespanResult(
        expected_makespan=float(v_pre[x0, 0]),
        first_chunk=float(c_pre[x0, 0]) * u,
        u=u,
        tau0=tau0,
        recovery=r_eff,
        _v_pre=v_pre,
        _c_pre=c_pre,
        _v_post=v_post,
        _c_post=c_post,
    )
