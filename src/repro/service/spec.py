"""Canonical scenario descriptions and their content-addressed signatures.

A :class:`ScenarioSpec` is the service's unit of work: everything needed
to reproduce one scenario run bit-identically — distribution, platform,
policy list, trace count and seed.  Its JSON form is *canonical*
(defaults filled in, keys ordered, durations in seconds), so equal
scenarios have equal encodings, and its :meth:`~ScenarioSpec.signature`
is the SHA-256 of that encoding salted with the result-store code hash
(:func:`repro.service.store.store_version`).  The signature is the key
of the content-addressed result store and of the job-queue coalescing
logic: re-submitting an already-solved scenario is a store hit, not a
re-solve — the same contract as the PR-5 replan memo, one level up.

The worker count (``jobs``) is deliberately *not* part of a spec: it
never changes results (bit-identity is guaranteed by the runner), so two
submissions that differ only in execution mode share one signature and
one archived result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.units import DAY, MINUTE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.models import Platform
    from repro.policies.base import Policy
    from repro.simulation.runner import ScenarioResult

__all__ = [
    "POLICY_NAMES",
    "ScenarioSpec",
    "SpecError",
    "expand_grid",
    "policy_from_name",
]

#: Builtin policy spellings accepted in ``ScenarioSpec.policies`` (the
#: ``period:<seconds>`` family is accepted on top of these).
POLICY_NAMES = (
    "young",
    "dalylow",
    "dalyhigh",
    "optexp",
    "bouguerra",
    "liu",
    "dpnextfailure",
    "dpmakespan",
)


class SpecError(ValueError):
    """A scenario description that cannot be turned into a run."""


def policy_from_name(name: str) -> "Policy":
    """Instantiate a policy from its CLI/spec spelling.

    Accepts the builtin names of :data:`POLICY_NAMES` plus
    ``period:<seconds>`` (a float, e.g. ``period:7200``).  Raises
    :class:`SpecError` on anything else.
    """
    from repro.policies import (
        Bouguerra,
        DalyHigh,
        DalyLow,
        DPMakespanPolicy,
        DPNextFailurePolicy,
        Liu,
        OptExp,
        Young,
    )
    from repro.policies.base import PeriodicPolicy

    table: dict[str, Callable[[], Policy]] = {
        "young": Young,
        "dalylow": DalyLow,
        "dalyhigh": DalyHigh,
        "optexp": OptExp,
        "bouguerra": Bouguerra,
        "liu": Liu,
        "dpnextfailure": DPNextFailurePolicy,
        "dpmakespan": DPMakespanPolicy,
    }
    if name in table:
        return table[name]()
    if name.startswith("period:"):
        try:
            period = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise SpecError(f"bad period in policy {name!r}") from exc
        if period <= 0 or not math.isfinite(period):
            raise SpecError(f"period must be positive and finite: {name!r}")
        return PeriodicPolicy(period)
    raise SpecError(
        f"unknown policy {name!r}; choose from {sorted(table)} "
        "or period:<seconds>"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: distribution x platform x policies x traces.

    All durations are seconds (repo convention).  ``work`` is the total
    sequential workload ``W``; the job is embarrassingly parallel, so
    the failure-free execution time is ``W / p``.  ``horizon`` defaults
    to the simulate-subcommand budget ``60 * work / p + mtbf`` when not
    given.  ``shape`` only participates for Weibull distributions and is
    canonicalized away for exponential ones.
    """

    dist: str = "weibull"
    mtbf: float = DAY
    shape: float = 0.7
    p: int = 1
    work: float = 20 * DAY
    checkpoint: float = 10 * MINUTE
    recovery: float = 10 * MINUTE
    downtime: float = MINUTE
    policies: tuple[str, ...] = ("dpnextfailure",)
    n_traces: int = 3
    seed: int = 0
    t0: float = 0.0
    horizon: float | None = None
    include_lower_bound: bool = True
    include_period_lb: bool = False

    _FIELD_ORDER = (
        "dist",
        "mtbf",
        "shape",
        "p",
        "work",
        "checkpoint",
        "recovery",
        "downtime",
        "policies",
        "n_traces",
        "seed",
        "t0",
        "horizon",
        "include_lower_bound",
        "include_period_lb",
    )

    def __post_init__(self) -> None:
        if self.dist not in ("exponential", "weibull"):
            raise SpecError(f"dist must be exponential|weibull, got {self.dist!r}")
        for name in ("mtbf", "work", "checkpoint", "recovery"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0
                    and math.isfinite(value)):
                raise SpecError(f"{name} must be a positive finite number")
        if not (self.downtime >= 0 and math.isfinite(self.downtime)):
            raise SpecError("downtime must be non-negative and finite")
        if self.dist == "weibull" and not (
            math.isfinite(self.shape) and self.shape > 0
        ):
            raise SpecError("shape must be a positive finite number")
        if self.p < 1:
            raise SpecError("p must be >= 1")
        if self.n_traces < 1:
            raise SpecError("n_traces must be >= 1")
        if self.t0 < 0 or not math.isfinite(self.t0):
            raise SpecError("t0 must be non-negative and finite")
        if self.horizon is not None and not (
            math.isfinite(self.horizon) and self.horizon > 0
        ):
            raise SpecError("horizon must be a positive finite number or null")
        if not self.policies:
            raise SpecError("policies must name at least one policy")
        for name in self.policies:
            policy_from_name(name)  # raises SpecError on bad spellings

    # -- canonical encoding --------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form: fixed key order, floats as floats,
        ``shape`` omitted for exponential distributions."""
        out: dict[str, Any] = {}
        for name in self._FIELD_ORDER:
            if name == "shape" and self.dist == "exponential":
                continue
            value = getattr(self, name)
            if name == "policies":
                value = list(value)
            elif isinstance(value, float) and name != "horizon":
                value = float(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ScenarioSpec":
        """Validated construction from an untrusted dict (HTTP body,
        ``--spec`` file).  Unknown keys are an error — silently ignoring
        them would let typos change what gets solved."""
        if not isinstance(raw, dict):
            raise SpecError(f"spec must be an object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls._FIELD_ORDER)
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for name in cls._FIELD_ORDER:
            if name not in raw:
                continue
            value = raw[name]
            if name == "policies":
                if isinstance(value, str):
                    value = [part for part in value.split(",") if part]
                if not isinstance(value, (list, tuple)):
                    raise SpecError("policies must be a list of names")
                value = tuple(str(v) for v in value)
            elif name in ("p", "n_traces", "seed"):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SpecError(f"{name} must be an integer")
                if float(value) != int(value):
                    raise SpecError(f"{name} must be an integer")
                value = int(value)
            elif name in ("include_lower_bound", "include_period_lb"):
                if not isinstance(value, bool):
                    raise SpecError(f"{name} must be a boolean")
            elif name == "dist":
                value = str(value)
            elif name == "horizon" and value is None:
                value = None
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SpecError(f"{name} must be a number")
                value = float(value)
            kwargs[name] = value
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """The signature preimage: compact, key-ordered, strict JSON."""
        return json.dumps(self.to_dict(), allow_nan=False,
                          separators=(",", ":"))

    def signature(self) -> str:
        """Content address of this scenario in the result store.

        SHA-256 over the canonical encoding, salted with the code hash
        of the result-determining packages (see
        :func:`repro.service.store.store_version`) so a code change that
        could alter results retires every archived entry at once.
        """
        from repro.service.store import store_version

        preimage = f"{store_version()}|{self.canonical_json()}"
        return hashlib.sha256(preimage.encode()).hexdigest()[:40]

    # -- materialization -----------------------------------------------

    def build_distribution(self):
        """The per-processor failure distribution this spec names."""
        from repro.distributions import Exponential, Weibull

        if self.dist == "exponential":
            return Exponential.from_mtbf(self.mtbf)
        return Weibull.from_mtbf(self.mtbf, self.shape)

    def build_platform(self) -> "Platform":
        """The platform: ``p`` processors, C/R overheads, downtime."""
        from repro.cluster.models import Platform, SplitOverhead

        return Platform(
            p=self.p,
            dist=self.build_distribution(),
            downtime=self.downtime,
            overhead=SplitOverhead(self.checkpoint, self.recovery),
        )

    def build_policies(self) -> list["Policy"]:
        """Fresh policy instances, one per spelled name, in order."""
        return [policy_from_name(name) for name in self.policies]

    @property
    def work_time(self) -> float:
        """Failure-free execution time ``W(p) = W / p``."""
        return self.work / self.p

    @property
    def effective_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
        # the 60x on per-processor work is a horizon budget, not a minute
        return 60.0 * self.work / self.p + self.mtbf  # reprolint: disable=R2

    def run(
        self,
        jobs: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        shared=None,
        executor=None,
    ) -> "ScenarioResult":
        """Execute this scenario on the PR-1/4/5 execution tier.

        Results are a pure function of the spec (bit-identical for any
        ``jobs``) — the property the content-addressed store and
        the service's cached-resubmit contract rest on.  ``shared`` /
        ``executor`` are sweep-group plumbing (pre-built trace set, one
        process pool per grid); see
        :func:`repro.simulation.runner.run_scenarios`.
        """
        from repro.simulation.runner import run_scenarios

        return run_scenarios(
            self.build_policies(),
            self.build_platform(),
            self.work_time,
            n_traces=self.n_traces,
            horizon=self.effective_horizon,
            t0=self.t0,
            seed=self.seed,
            include_lower_bound=self.include_lower_bound,
            include_period_lb=self.include_period_lb,
            jobs=jobs,
            progress=progress,
            shared=shared,
            executor=executor,
        )


def expand_grid(
    base: dict[str, Any], grid: dict[str, Sequence[Any]]
) -> list[ScenarioSpec]:
    """Expand a parameter grid into validated :class:`ScenarioSpec`\\ s.

    ``base`` is a raw spec dict (the ``--spec`` file / flag values);
    ``grid`` maps spec field names to the values each grid axis takes.
    The expansion is the cartesian product in deterministic order: axes
    iterate in ``grid``'s insertion order, values in their given order,
    with the last axis varying fastest — so the same request always
    yields the same point list, point ``i`` is reproducible from the
    request alone, and sweep results align positionally.  Every point
    goes through :meth:`ScenarioSpec.from_dict`, so unknown keys and
    bad values fail the whole expansion up front rather than midway
    through a sweep.
    """
    if not isinstance(grid, dict):
        raise SpecError(f"grid must be an object, got {type(grid).__name__}")
    for key, values in grid.items():
        if key not in ScenarioSpec._FIELD_ORDER:
            raise SpecError(f"unknown grid key {key!r}")
        if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple)
        ):
            raise SpecError(f"grid values for {key!r} must be a list")
        if not values:
            raise SpecError(f"grid axis {key!r} is empty")
    keys = list(grid)
    specs: list[ScenarioSpec] = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        raw = dict(base)
        raw.update(zip(keys, combo))
        specs.append(ScenarioSpec.from_dict(raw))
    return specs
