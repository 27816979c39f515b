"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

# Lint fixtures contain deliberate rule violations; never collect them
# as tests.
collect_ignore = ["fixtures"]

from repro.distributions import Empirical, Exponential, Gamma, LogNormal, Weibull
from repro.units import DAY, HOUR


@pytest.fixture(scope="session", autouse=True)
def _service_dir_backstop(tmp_path_factory):
    """Session-wide ``REPRO_SERVICE_DIR`` so *nothing* — including
    module-scoped fixtures, which run before any function-scoped
    fixture can patch the environment — writes a ``.repro-service/``
    under the repository root."""
    import os

    path = tmp_path_factory.mktemp("repro-service-session")
    prior = os.environ.get("REPRO_SERVICE_DIR")
    os.environ["REPRO_SERVICE_DIR"] = str(path)
    yield
    # the solve tier flushes pending counters at interpreter exit; do it
    # now, while they still land in this session's directory
    from repro.core.diskcache import get_disk_cache

    get_disk_cache().flush_counters()
    if prior is None:
        os.environ.pop("REPRO_SERVICE_DIR", None)
    else:
        os.environ["REPRO_SERVICE_DIR"] = prior


@pytest.fixture(autouse=True)
def _isolated_service_dir(tmp_path, monkeypatch):
    """Point every test at a private ``.repro-service/`` root.

    The persistent solve tier (:mod:`repro.core.diskcache`) and the
    result store both resolve their location from ``REPRO_SERVICE_DIR``
    (or the CWD); a per-test directory keeps disk-warm solves from
    leaking between tests that count solves or cache misses."""
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / ".repro-service"))
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def exponential_day():
    return Exponential.from_mtbf(DAY)


@pytest.fixture
def weibull_day():
    return Weibull.from_mtbf(DAY, 0.7)


def all_distributions():
    """One representative of every distribution family, MTBF ~ 1 day."""
    rng = np.random.default_rng(7)
    return [
        Exponential.from_mtbf(DAY),
        Weibull.from_mtbf(DAY, 0.7),
        Weibull.from_mtbf(DAY, 1.5),
        Gamma.from_mtbf(DAY, 0.6),
        Gamma.from_mtbf(DAY, 2.0),
        LogNormal.from_mtbf(DAY, 1.0),
        Empirical(rng.weibull(0.7, size=4000) * DAY),
    ]


def dist_id(dist):
    return repr(dist)[:40]


# ----------------------------------------------------------------------
# reference oracles: the slow paths production no longer selects
# ----------------------------------------------------------------------
#
# Each helper takes a ``monkeypatch`` (or ``monkeypatch.context()``)
# handle, so a test can run one arm under the oracle and the other on
# the production path.  Runner pools fork after the patch, so workers
# inherit it.


def bypass_solve_caches(mp):
    """Cold solves for every DP policy: DPNextFailure replans and
    DPMakespan tables go straight to the solvers — no table cache, no
    replan memo, no disk tier.  Every DPNextFailure replan, of a lane
    step or of ``simulate_job``, passes through ``cached_replans`` as
    the policy module sees it; here each is answered by the reference
    kernel (:mod:`tests.nextfailure_oracle`: full scalar lattice,
    fancy-index DP), not the production one."""
    import repro.policies.dp as dp_policies
    from repro.core.dp_makespan import dp_makespan

    from . import nextfailure_oracle

    mp.setattr(
        dp_policies,
        "cached_replans",
        lambda requests: [
            nextfailure_oracle.dp_next_failure_parallel(
                r.work, r.checkpoint, r.state(), r.u
            )
            for r in requests
        ],
    )
    mp.setattr(
        dp_policies, "cached_dp_makespan", lambda **kw: dp_makespan(**kw)
    )


def scalar_replay(mp):
    """One scalar ``simulate_job`` per (policy, trace) and per (PeriodLB
    candidate, trace): the batch engine declines every policy, so the
    runner's dispatcher takes its scalar fallback, and the lockstep
    kernel fails the test if anything still reaches it."""
    import repro.simulation.batch as batch
    import repro.simulation.parallel as parallel
    from repro.policies.base import PeriodicPolicy
    from repro.simulation.engine import simulate_job

    def no_static_policies(policies, *args, **kw):
        return [None] * len(policies)

    def scalar_period_makespans(
        periods,
        work_time,
        traces,
        checkpoint,
        recovery,
        t0=0.0,
        max_makespan=np.inf,
        ensemble=None,
    ):
        # a periodic policy reads no distribution
        return np.asarray(
            [
                [
                    simulate_job(
                        PeriodicPolicy(period, name="PeriodCandidate"),
                        work_time,
                        tr,
                        checkpoint,
                        recovery,
                        None,
                        t0=t0,
                        max_makespan=max_makespan,
                    ).makespan
                    for tr in traces
                ]
                for period in periods
            ],
            dtype=float,
        ).reshape(len(periods), len(traces))

    def kernel_called(*args, **kw):
        raise AssertionError("lockstep kernel reached under scalar_replay")

    mp.setattr(batch, "simulate_job_batch", lambda *args, **kw: None)
    mp.setattr(batch, "_replay_lanes", kernel_called)
    for module in (batch, parallel):
        mp.setattr(module, "simulate_static_policies", no_static_policies)
        mp.setattr(module, "simulate_period_makespans", scalar_period_makespans)


def disk_tier_off(mp):
    """The persistent solve tier disabled (``--no-disk-cache``)."""
    from repro.core.diskcache import get_disk_cache

    mp.setattr(get_disk_cache(), "enabled", False)
