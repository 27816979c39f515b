"""Interface-level properties every failure distribution must satisfy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.units import DAY

from .conftest import all_distributions, dist_id

DISTS = all_distributions()


@pytest.mark.parametrize("dist", DISTS, ids=dist_id)
class TestSurvivalFunction:
    def test_sf_at_zero_is_one(self, dist):
        assert dist.sf(0.0) == pytest.approx(1.0)

    def test_sf_is_decreasing(self, dist):
        ts = np.linspace(0.0, 5 * DAY, 200)
        sf = np.atleast_1d(dist.sf(ts))
        assert np.all(np.diff(sf) <= 1e-12)

    def test_sf_bounded(self, dist):
        ts = np.geomspace(1.0, 100 * DAY, 50)
        sf = np.atleast_1d(dist.sf(ts))
        assert np.all(sf >= 0.0) and np.all(sf <= 1.0)

    def test_cdf_complements_sf(self, dist):
        ts = np.geomspace(10.0, 10 * DAY, 20)
        assert np.allclose(dist.cdf(ts) + dist.sf(ts), 1.0)

    def test_logsf_consistent_with_sf(self, dist):
        ts = np.geomspace(10.0, 3 * DAY, 20)
        sf = np.atleast_1d(dist.sf(ts))
        logsf = np.atleast_1d(dist.logsf(ts))
        mask = sf > 1e-12
        assert np.allclose(np.exp(logsf[mask]), sf[mask], rtol=1e-8)

    def test_sf_negative_time_is_one(self, dist):
        assert dist.sf(-5.0) == pytest.approx(1.0)


@pytest.mark.parametrize("dist", DISTS, ids=dist_id)
class TestConditionalSurvival:
    def test_psuc_is_probability(self, dist):
        for tau in (0.0, DAY / 4, 2 * DAY):
            p = float(dist.psuc(DAY / 2, tau))
            assert 0.0 <= p <= 1.0

    def test_psuc_zero_window_is_one(self, dist):
        assert float(dist.psuc(0.0, DAY / 3)) == pytest.approx(1.0)

    def test_psuc_decreasing_in_window(self, dist):
        xs = np.linspace(0.0, 2 * DAY, 50)
        p = np.atleast_1d(dist.psuc(xs, DAY / 5))
        assert np.all(np.diff(p) <= 1e-12)

    def test_psuc_matches_sf_ratio(self, dist):
        tau, x = DAY / 3, DAY / 2
        expected = dist.sf(tau + x) / dist.sf(tau)
        assert float(dist.psuc(x, tau)) == pytest.approx(float(expected), rel=1e-9)


@pytest.mark.parametrize("dist", DISTS, ids=dist_id)
class TestMoments:
    def test_mean_positive(self, dist):
        assert dist.mean() > 0

    def test_sample_mean_close(self, dist):
        rng = np.random.default_rng(0)
        xs = np.asarray(dist.sample(rng, size=40_000), dtype=float)
        assert np.all(xs >= 0)
        # heavy tails: generous tolerance
        assert xs.mean() == pytest.approx(dist.mean(), rel=0.15)

    def test_quantile_inverts_cdf(self, dist):
        for q in (0.1, 0.5, 0.9):
            t = float(np.asarray(dist.quantile(q)).ravel()[0])
            # discrete distributions overshoot slightly; allow slack
            assert dist.cdf(t) == pytest.approx(q, abs=0.02)

    def test_quantile_monotone(self, dist):
        qs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        ts = np.asarray(dist.quantile(qs), dtype=float)
        assert np.all(np.diff(ts) >= 0)


@pytest.mark.parametrize("dist", DISTS, ids=dist_id)
class TestHazardAndLoss:
    def test_hazard_nonnegative(self, dist):
        ts = np.geomspace(60.0, 5 * DAY, 30)
        h = np.atleast_1d(dist.hazard(ts))
        assert np.all(h >= 0)

    def test_expected_tlost_bounds(self, dist):
        x = DAY / 2
        for tau in (0.0, DAY / 4):
            tl = dist.expected_tlost(x, tau)
            assert 0.0 <= tl <= x

    def test_expected_tlost_zero_window(self, dist):
        assert dist.expected_tlost(0.0, 0.0) == 0.0

    def test_sample_conditional_nonnegative(self, dist):
        rng = np.random.default_rng(3)
        xs = np.asarray(dist.sample_conditional(rng, DAY / 4, size=500), dtype=float)
        assert np.all(xs >= -1e-9)


@pytest.mark.parametrize("dist", DISTS, ids=dist_id)
def test_conditional_sampling_consistent_with_psuc(dist):
    """Empirical survival of conditional samples matches Psuc."""
    rng = np.random.default_rng(11)
    tau = DAY / 5
    xs = np.asarray(dist.sample_conditional(rng, tau, size=20_000), dtype=float)
    x_probe = DAY / 2
    emp = float(np.mean(xs >= x_probe))
    assert emp == pytest.approx(float(dist.psuc(x_probe, tau)), abs=0.02)


class TestSimpson:
    """The numpy Simpson helper is pinned to ``scipy.integrate.simpson``
    bit for bit on the grids its two call sites integrate."""

    def test_min_of_iid_mean_grids(self):
        from scipy.integrate import simpson as scipy_simpson

        from repro.distributions import Weibull
        from repro.distributions.base import simpson
        from repro.distributions.minimum import MinOfIID

        rng = np.random.default_rng(20111)
        for _ in range(100):
            law = MinOfIID(
                Weibull.from_mtbf(rng.uniform(1e3, 1e8), rng.uniform(0.3, 2.0)),
                int(rng.integers(1, 100_000)),
            )
            ts = np.linspace(0.0, float(law.quantile(1.0 - 1e-9)), 4097)
            y = law.sf(ts)
            assert simpson(y, ts) == float(scipy_simpson(y, x=ts))
            assert law.mean() == float(scipy_simpson(y, x=ts))

    @pytest.mark.parametrize("dist", DISTS, ids=dist_id)
    def test_expected_tlost_grids(self, dist):
        from scipy.integrate import simpson as scipy_simpson

        from repro.distributions.base import simpson

        rng = np.random.default_rng(7)
        for _ in range(20):
            x, tau = rng.uniform(1.0, 3 * DAY), rng.uniform(0.0, 3 * DAY)
            ts = np.linspace(0.0, x, 257)
            s = dist.sf(tau + ts)
            assert simpson(s - s[-1], ts) == float(scipy_simpson(s - s[-1], x=ts))

    def test_rejects_even_point_counts(self):
        from repro.distributions.base import simpson

        with pytest.raises(ValueError):
            simpson(np.ones(4), np.arange(4.0))


class TestLazyScipy:
    """``scipy.special`` loads only with the first Gamma or LogNormal
    evaluation: importing the CLI or the experiment modules, as every
    command and every Weibull or Exponential run does, leaves it out."""

    def test_cli_and_experiments_import_without_scipy_special(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys, repro.cli, repro.experiments.scaling; "
            "print('scipy.special' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    # float.hex of sf and log_survival at t = 0, 1 h, 1 d, 5 d, and of
    # the 0.1 / 0.5 / 0.9 quantiles, from the module-level import era
    PINNED = {
        "gamma": (
            ["0x1.0000000000000p+0", "0x1.c1ee6998f816dp-1",
             "0x1.53c3d41cb1933p-2", "0x1.3eff224e0380cp-6"],
            ["0x0.0p+0", "-0x1.08a997d96e5dap-3",
             "-0x1.1a6c7a3bde4f6p+0", "-0x1.f82d3886caa6fp+1"],
            ["0x1.45167fb1ace99p+11", "0x1.632a2e4f81184p+15",
             "0x1.b6e43ef596b3cp+17"],
        ),
        "lognormal": (
            ["0x1.0000000000000p+0", "0x1.fe1ab281dda42p-1",
             "0x1.3bf143b9aa713p-2", "0x1.1df4dd815525ep-6"],
            ["0x0.0p+0", "-0x1.e6340f8e2bc00p-9",
             "-0x1.2d088d9f06be5p+0", "-0x1.03160cbbc93b2p+2"],
            ["0x1.c69df914d1358p+13", "0x1.99687f7cd1c48p+15",
             "0x1.70b1ef2d12ff6p+17"],
        ),
    }

    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    def test_values_match_pinned(self, family):
        from repro.distributions import Gamma, LogNormal

        dist = (
            Gamma.from_mtbf(DAY, 0.6)
            if family == "gamma"
            else LogNormal.from_mtbf(DAY, 1.0)
        )
        t = np.array([0.0, 3600.0, DAY, 5 * DAY])
        got = (
            [float(x).hex() for x in dist.sf(t)],
            [float(x).hex() for x in dist.log_survival(t)],
            [float(x).hex() for x in dist.quantile(np.array([0.1, 0.5, 0.9]))],
        )
        assert got == tuple(self.PINNED[family])
