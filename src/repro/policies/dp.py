"""The paper's dynamic-programming policies.

- :class:`DPNextFailurePolicy`: at every (re)planning point, run the
  parallel DPNextFailure on the current platform state (processor ages)
  and execute the resulting chunk schedule until the next failure.  Uses
  the paper's performance devices (Section 3.3): the ``(nexact,
  napprox)`` state compression, the work truncation to ``2 x platform
  MTBF``, and the use-only-the-first-half-of-the-schedule rule.
- :class:`DPMakespanPolicy`: the Algorithm-1 policy.  For parallel jobs
  it makes the paper's stated (false) assumption that all processors are
  rejuvenated after each failure, replacing the platform by the
  ``min``-law macro-processor.
"""

from __future__ import annotations

import math

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.cache import (
    cached_dp_makespan,
    cached_dp_next_failure_parallel,
    cached_replan,
    cached_replans,
    quantize_ages,
)
from repro.core.state import PlatformState
from repro.distributions.base import FailureDistribution
from repro.distributions.minimum import MinOfIID
from repro.policies.base import Policy
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.dp_nextfailure import DPNextFailureResult
    from repro.simulation.engine import JobContext

__all__ = ["DPNextFailurePolicy", "DPMakespanPolicy", "ReplanRequest"]


@dataclass(frozen=True, eq=False)
class ReplanRequest:
    """One DPNextFailure replan: the full input of its solve, with the
    ages already snapped to the lattice (:func:`quantize_ages`).

    The policy hands it to the engine (:meth:`Policy.plan_request`);
    :meth:`resolve` answers it alone, :meth:`resolve_all` answers the
    requests of a lockstep step together.  Both return the same results
    through the same cache levels.
    """

    work: float
    checkpoint: float
    dist: FailureDistribution
    ages: np.ndarray
    u: float
    nexact: int
    napprox: int
    compress: bool

    def state(self) -> PlatformState:
        """The platform state the DP solves on (compressed if asked)."""
        state = PlatformState(self.ages, self.dist)
        if self.compress:
            state = state.compress(self.nexact, self.napprox)
        return state

    def resolve(self) -> "DPNextFailureResult":
        """This replan alone: the replan memo and disk tier
        (:func:`cached_replan`), then the compressed-state table cache
        (:func:`cached_dp_next_failure_parallel`)."""
        return cached_replan(
            self.work,
            self.checkpoint,
            self.dist,
            self.ages,
            self.u,
            self.nexact,
            self.napprox,
            self.compress,
            lambda: cached_dp_next_failure_parallel(
                self.work, self.checkpoint, self.state(), self.u
            ),
        )

    @staticmethod
    def resolve_all(requests: list) -> list:
        """Every request of a lockstep step, solves stacked
        (:func:`cached_replans`)."""
        return cached_replans(requests)


class DPNextFailurePolicy(Policy):
    """Adaptive policy maximizing expected work before the next failure.

    Parameters
    ----------
    n_grid:
        Target number of work quanta per DP invocation (the quantum is
        ``planning_horizon / n_grid``); the paper's accuracy/cost knob.
    nexact, napprox:
        State-compression parameters (paper: 10 and 100).
    truncation:
        Plan at most ``truncation x platform MTBF`` of work per
        invocation (paper: 2).
    use_fraction:
        Fraction of the planned chunks actually executed before
        replanning when the plan was truncated (paper: 1/2).
    memo_quant:
        Age-lattice resolution in units of the DP quantum ``u``: before
        every replan the processor ages are snapped to multiples of
        ``memo_quant * u`` (the discretization the DP applies to work
        and elapsed time anyway).  Every replan goes through the
        process-wide replan memo (:mod:`repro.core.cache`), so replans
        whose snapped state, horizon and DP parameters match a previous
        solve — across traces, sweeps and runner workers — reuse the
        bit-identical result; ``0`` disables snapping (and with it most
        cross-trace memo collisions).
    """

    name = "DPNextFailure"

    def __init__(
        self,
        n_grid: int = 96,
        nexact: int = 10,
        napprox: int = 100,
        truncation: float = 2.0,
        use_fraction: float = 0.5,
        compress: bool = True,
        memo_quant: float = 1.0,
    ):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        if memo_quant < 0:
            raise ValueError("memo_quant must be non-negative")
        self.n_grid = n_grid
        self.nexact = nexact
        self.napprox = napprox
        self.truncation = truncation
        self.use_fraction = use_fraction
        self.compress = compress
        self.memo_quant = memo_quant
        self._queue: deque[float] = deque()
        # whether the pending replan plans a truncated horizon
        self._truncated = False

    def setup(self, ctx: "JobContext") -> None:
        self._queue = deque()

    def __getstate__(self):
        # Drop the in-flight plan when shipped to a runner worker: it is
        # per-trace state that setup() rebuilds.
        state = self.__dict__.copy()
        state["_queue"] = deque()
        return state

    def on_failure(self, ctx: "JobContext") -> None:
        # The platform state changed: the current plan is stale.
        self._queue = deque()

    def plan_request(
        self, remaining: float, ctx: "JobContext"
    ) -> ReplanRequest | None:
        """The replan the next chunk waits on: None while the current
        plan lasts."""
        if self._queue:
            return None
        mtbf = ctx.platform_mtbf
        horizon = remaining
        self._truncated = False
        if math.isfinite(mtbf) and self.truncation > 0:
            cap = self.truncation * mtbf
            if cap < remaining:
                horizon = cap
                self._truncated = True
        u = max(horizon / self.n_grid, 1e-6)
        # Ages are snapped to the DP's quantum lattice before solving,
        # so a memo hit is trivially bit-identical to the cold solve it
        # stands in for (see repro.core.cache).
        ages = quantize_ages(
            np.asarray(ctx.ages, dtype=float), self.memo_quant * u
        )
        return ReplanRequest(
            horizon,
            ctx.checkpoint,
            ctx.dist,
            ages,
            u,
            self.nexact,
            self.napprox,
            self.compress,
        )

    def adopt_plan(
        self, request: ReplanRequest, plan: "DPNextFailureResult"
    ) -> None:
        """Queue the chunks of ``plan`` (the first ``use_fraction`` of
        them when the horizon was truncated)."""
        chunks = list(plan.chunks)
        if self._truncated and len(chunks) > 1:
            keep = max(1, int(math.ceil(len(chunks) * self.use_fraction)))
            chunks = chunks[:keep]
        self._queue = deque(chunks)

    def next_chunk(self, remaining: float, ctx: "JobContext") -> float:
        # The engine adopts a plan before asking; any other caller gets
        # its replan resolved here.
        request = self.plan_request(remaining, ctx)
        if request is not None:
            self.adopt_plan(request, request.resolve())
        w = self._queue.popleft()
        return min(w, remaining)


class DPMakespanPolicy(Policy):
    """Algorithm-1 policy (expected-makespan minimization).

    Sequential jobs use the processor's failure law directly.  Parallel
    jobs require the all-rejuvenation assumption (otherwise the state
    space is exponential in ``p``): the platform becomes a single
    macro-processor with the ``min``-of-iid law, whose age restarts at
    every failure.

    The quantum is ``max(C, W / n_grid)``: never finer than the
    checkpoint duration (the grid encodes advances as multiples of ``u``
    including checkpoints, so ``u`` must divide into ``C`` sensibly) and
    never more than ``n_grid`` work quanta (the DP cost is cubic in
    ``W/u``).  When ``W > n_grid * C`` the checkpoint cost is effectively
    over-estimated as one quantum — the same quantization the paper's
    Algorithm 1 incurs.
    """

    name = "DPMakespan"

    def __init__(self, n_grid: int = 288):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        self.n_grid = n_grid
        self._result = None
        self._failed = False
        self._elapsed_grid = 0.0

    def setup(self, ctx: "JobContext") -> None:
        self._failed = False
        self._elapsed_grid = 0.0
        law = MinOfIID(ctx.dist, ctx.n_units) if ctx.n_units > 1 else ctx.dist
        u = max(ctx.checkpoint, ctx.work_time / self.n_grid, 1e-6)
        # The macro-processor is taken fresh at job start (tau0 = 0); the
        # DP solution then only depends on the scenario parameters and is
        # shared across traces, scenarios and runner workers through the
        # process-wide table cache (repro.core.cache).
        self._result = cached_dp_makespan(
            work=ctx.work_time,
            checkpoint=ctx.checkpoint,
            downtime=ctx.downtime,
            recovery=ctx.recovery,
            dist=law,
            u=u,
            tau0=0.0,
        )

    def __getstate__(self):
        # The solved table is per-scenario state that setup() re-derives
        # (from the shared cache when warm); keep worker payloads small.
        state = self.__dict__.copy()
        state["_result"] = None
        return state

    def on_failure(self, ctx: "JobContext") -> None:
        self._failed = True
        self._elapsed_grid = 0.0

    def next_chunk(self, remaining: float, ctx: "JobContext") -> float:
        # Model age of the macro-processor: grid time elapsed since job
        # start (pre-failure plane) or since the last recovery ended
        # (post-failure plane, whose base already accounts for R).
        tau = (self._result.recovery if self._failed else 0.0) + self._elapsed_grid
        w = self._result.chunk_for(remaining, tau, self._failed)
        if w <= 0:
            w = remaining
        w = min(w, remaining)
        self._elapsed_grid += w + ctx.checkpoint
        return w
