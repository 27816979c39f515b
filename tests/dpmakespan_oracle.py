"""Reference DPMakespan sweep: the ``y``-at-a-time loop production dropped.

Production (:func:`repro.core.dp_makespan.dp_makespan`) sweeps each
plane's whole ``y`` range in blocked 2-D ``(y, i)`` operations.  This
module keeps the original form as a test oracle: one ``y`` row at a
time, each row's candidate chunks minimized with scalar ``argmin``.
Both forms apply the same float operations per element and keep the
first minimum on ties, so they must build ``np.array_equal`` tables.

:func:`dp_makespan` is a drop-in for the production function.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp_makespan import (
    DPMakespanResult,
    _Plane,
    expected_trec_general,
)
from repro.distributions.base import FailureDistribution


def dp_makespan(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    dist: FailureDistribution,
    u: float,
    tau0: float = 0.0,
) -> DPMakespanResult:
    """Algorithm 1 on a quantum-``u`` grid, one ``y`` row at a time."""
    if u <= 0:
        raise ValueError("quantum u must be positive")
    x0 = max(1, int(round(work / u)))
    c_q = max(1, int(round(checkpoint / u)))
    trec = expected_trec_general(dist, downtime, recovery)

    y_max = x0 * (1 + c_q) + c_q + 1
    post = _Plane(dist, recovery, u, y_max + c_q + 1)
    pre = _Plane(dist, tau0, u, y_max + c_q + 1)

    v_post = np.zeros((x0 + 1, y_max + 1))
    c_post = np.zeros((x0 + 1, y_max + 1), dtype=np.int64)
    v_pre = np.zeros((x0 + 1, y_max + 1))
    c_pre = np.zeros((x0 + 1, y_max + 1), dtype=np.int64)

    for x in range(1, x0 + 1):
        ivec = np.arange(1, x + 1)
        deltas = ivec + c_q
        widths = deltas * u
        reach = (x0 - x) * (1 + c_q) + c_q

        # anchor (x, post-failure, y=0): closed-form fixed point
        p = np.clip(post.psuc(0, deltas), 1e-300, 1.0)
        tl = post.tlost(0, deltas, u)
        vsucc = v_post[x - ivec, deltas]
        vals = widths + vsucc + (1.0 - p) / p * (tl + trec)
        best = int(np.argmin(vals))
        v_post[x, 0] = vals[best]
        c_post[x, 0] = best + 1
        anchor = v_post[x, 0]

        for plane, y_lo, v, c in ((post, 1, v_post, c_post), (pre, 0, v_pre, c_pre)):
            for y in range(y_lo, reach + 1):
                p = np.clip(plane.psuc(y, deltas), 1e-300, 1.0)
                tl = plane.tlost(y, deltas, u)
                vsucc = v[x - ivec, y + deltas]
                vals = p * (widths + vsucc) + (1.0 - p) * (tl + trec + anchor)
                best = int(np.argmin(vals))
                v[x, y] = vals[best]
                c[x, y] = best + 1

    return DPMakespanResult(
        expected_makespan=float(v_pre[x0, 0]),
        first_chunk=float(c_pre[x0, 0]) * u,
        u=u,
        tau0=tau0,
        recovery=recovery,
        _v_pre=v_pre,
        _c_pre=c_pre,
        _v_post=v_post,
        _c_post=c_post,
    )
