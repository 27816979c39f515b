"""Policy interface and the generic periodic policy."""

from __future__ import annotations

import abc

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.simulation.engine import JobContext

__all__ = [
    "Policy",
    "PeriodicPolicy",
    "PolicyInfeasibleError",
    "StaticSchedule",
]


class PolicyInfeasibleError(RuntimeError):
    """Raised when a policy cannot produce meaningful checkpoint dates
    for the given scenario (e.g. Liu with inter-checkpoint intervals
    shorter than the checkpoint duration — the pathology the paper
    reports for large Weibull platforms)."""


@dataclass(frozen=True)
class StaticSchedule:
    """A fixed chunk schedule declared by a policy for batch replay.

    Exactly one of the two fields is set:

    - ``period``: every attempt proposes ``min(period, remaining)`` —
      the stateless periodic family (Young, Daly, OptExp, Bouguerra,
      PeriodLB candidates);
    - ``chunks``: attempts since the last failure (or job start) follow
      ``chunks[0], chunks[1], ...``, each clipped to the remaining work,
      and the index restarts at 0 after every failure — Liu's renewal
      schedule.  A trace that needs more chunks than provided is
      infeasible on replay, mirroring the scalar engine's
      :class:`PolicyInfeasibleError`.
    """

    period: float | None = None
    chunks: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.period is None) == (self.chunks is None):
            raise ValueError("set exactly one of period/chunks")
        if self.period is not None and not self.period > 0:
            raise ValueError("period must be positive")
        if self.chunks is not None and np.any(np.asarray(self.chunks) <= 0):
            raise ValueError("all scheduled chunks must be positive")


class Policy(abc.ABC):
    """A checkpointing strategy: the function ``f(omega | state)``.

    The simulator calls :meth:`setup` once at job start, then
    :meth:`next_chunk` at every decision point and :meth:`on_failure`
    after every recovery.  A policy instance is used for one simulation
    at a time (``setup`` must reset any internal state).
    """

    name: str = "policy"

    def setup(self, ctx: "JobContext") -> None:
        """Prepare for a fresh job execution."""

    def on_failure(self, ctx: "JobContext") -> None:
        """Notification that a failure occurred and recovery completed."""

    def static_schedule(self, ctx: "JobContext") -> StaticSchedule | None:
        """The policy's fixed chunk schedule, or None if state-dependent.

        Called after :meth:`setup`.  An implementation promises that its
        ``next_chunk`` decisions depend only on scenario-level fields of
        ``ctx`` (never ``ctx.time`` / ``ctx.ages``), so one schedule is
        valid for every trace of a scenario and the batch replay engine
        (:mod:`repro.simulation.batch`) may simulate a whole trace
        ensemble with array operations.  Policies that adapt to runtime
        platform state (the DP policies) return None and fall back to
        the scalar engine.
        """
        return None

    def plan_request(self, remaining: float, ctx: "JobContext"):
        """A solve the next :meth:`next_chunk` waits on, or None.

        The engine asks before every :meth:`next_chunk`.  A request it
        gets is answered — alone by ``request.resolve()``, or with the
        requests of other lockstep lanes by ``request.resolve_all``
        (:func:`repro.simulation.batch.simulate_policy_ensemble`) — and
        the answer handed back through :meth:`adopt_plan`.  Policies
        that never wait on a solve keep this default.
        """
        return None

    def adopt_plan(self, request, plan) -> None:
        """Take the answer to the request :meth:`plan_request` made."""
        raise NotImplementedError(f"{type(self).__name__} makes no plan requests")

    @abc.abstractmethod
    def next_chunk(self, remaining: float, ctx: "JobContext") -> float:
        """Size (seconds of work) of the next chunk to attempt."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PeriodicPolicy(Policy):
    """Checkpoint every ``period`` seconds of work, whatever happens."""

    def __init__(self, period: float, name: str = "Periodic"):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)
        self.name = name

    def next_chunk(self, remaining: float, ctx: "JobContext") -> float:
        return min(self.period, remaining)

    def static_schedule(self, ctx: "JobContext") -> StaticSchedule:
        return StaticSchedule(period=self.period)
