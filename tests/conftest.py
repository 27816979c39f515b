"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

# Lint fixtures contain deliberate rule violations (including fake
# ``test_*`` functions for the R5 rule); never collect them as tests.
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
