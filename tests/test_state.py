"""Platform survival state: product structure, compression, lattice."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import PlatformState, SurvivalTable
from repro.distributions import Exponential, Weibull
from repro.units import DAY, HOUR, YEAR


@pytest.fixture
def weibull():
    return Weibull.from_mtbf(125 * YEAR, 0.7)


class TestPlatformState:
    def test_log_psuc_is_sum_over_processors(self, weibull):
        taus = np.array([HOUR, DAY, 10 * DAY])
        st = PlatformState(taus, weibull)
        x = 4 * HOUR
        expected = sum(float(weibull.log_psuc(x, t)) for t in taus)
        assert st.log_psuc(x) == pytest.approx(expected, rel=1e-12)

    def test_psuc_exponential_matches_macro_processor(self):
        lam = 1 / DAY
        d = Exponential(lam)
        p = 50
        st = PlatformState(np.full(p, 123.0), d)
        x = HOUR
        assert st.psuc(x) == pytest.approx(np.exp(-p * lam * x), rel=1e-10)

    def test_advance_shifts_ages(self, weibull):
        st = PlatformState([DAY, 2 * DAY], weibull)
        adv = st.advanced(HOUR)
        assert np.allclose(adv.taus, [DAY + HOUR, 2 * DAY + HOUR])

    def test_advance_equivalent_to_argument(self, weibull):
        st = PlatformState([DAY, 2 * DAY], weibull)
        assert st.log_psuc(HOUR, advance=DAY) == pytest.approx(
            st.advanced(DAY).log_psuc(HOUR), rel=1e-12
        )

    def test_vector_x(self, weibull):
        st = PlatformState([DAY], weibull)
        xs = np.array([HOUR, 2 * HOUR])
        out = st.log_psuc(xs)
        assert out.shape == (2,)
        assert out[1] < out[0]

    def test_rejects_negative_ages(self, weibull):
        with pytest.raises(ValueError):
            PlatformState([-1.0], weibull)

    def test_num_processors_counts_weights(self, weibull):
        st = PlatformState([1.0, 2.0], weibull, weights=np.array([3.0, 7.0]))
        assert st.num_processors == 10


class TestCompression:
    def test_small_state_returned_unchanged(self, weibull):
        st = PlatformState(np.arange(1.0, 50.0), weibull)
        c = st.compress(nexact=10, napprox=100)
        assert c.taus.size == 49

    def test_compressed_counts_preserved(self, weibull):
        rng = np.random.default_rng(0)
        taus = rng.uniform(0, 2 * YEAR, size=2000)
        c = PlatformState(taus, weibull).compress(nexact=10, napprox=50)
        assert c.num_processors == 2000
        assert c.taus.size <= 10 + 50

    def test_exact_smallest_kept(self, weibull):
        rng = np.random.default_rng(1)
        taus = rng.uniform(0, YEAR, size=500)
        c = PlatformState(taus, weibull).compress(nexact=5, napprox=20)
        smallest = np.sort(taus)[:5]
        assert np.allclose(np.sort(c.taus)[:5], smallest)

    def test_section33_accuracy(self, weibull):
        """The paper reports < 0.2% relative error on the success
        probability of an MTBF-long chunk for 45208 processors; check
        the same order of accuracy at a few thousand."""
        rng = np.random.default_rng(2)
        p = 4096
        taus = rng.uniform(0, 2 * YEAR, size=p)
        exact = PlatformState(taus, weibull)
        approx = exact.compress(10, 100)
        platform_mtbf = 125 * YEAR / p
        for frac in (1.0, 0.5, 0.125):
            pe = float(exact.psuc(frac * platform_mtbf))
            pa = float(approx.psuc(frac * platform_mtbf))
            assert abs(pa - pe) / pe < 0.005

    def test_compress_twice_rejected(self, weibull):
        rng = np.random.default_rng(3)
        st = PlatformState(rng.uniform(0, YEAR, 500), weibull).compress(5, 20)
        with pytest.raises(ValueError):
            st.compress(5, 20)

    def test_identical_ages_collapse(self, weibull):
        st = PlatformState(np.full(1000, DAY), weibull).compress(10, 100)
        assert st.num_processors == 1000
        assert st.taus.size <= 11


class TestSurvivalTable:
    def test_lattice_matches_direct_evaluation(self, weibull):
        st = PlatformState([DAY, 3 * DAY, YEAR], weibull)
        u, c = 500.0, 600.0
        table = SurvivalTable.build(st, u, c, na=10, nb=5)
        for a in range(11):
            for b in range(6):
                if b > a:  # unreachable: never tabulated
                    assert np.isnan(table.m2[a, b])
                    continue
                direct = st.log_psuc(a * u + b * c)
                assert table.m2[a, b] - table.m2[0, 0] == pytest.approx(
                    direct, rel=1e-9, abs=1e-12
                )

    def test_floor_prevents_nan(self):
        """Ages beyond an Empirical support give -inf log-survival; the
        floor keeps DP arithmetic finite."""
        from repro.distributions import Empirical

        d = Empirical([10.0, 20.0, 30.0])
        st = PlatformState([5.0], d)
        table = SurvivalTable.build(st, 10.0, 10.0, na=5, nb=5)
        reachable = np.tril(np.ones((6, 6), dtype=bool))  # b <= a
        assert np.all(np.isfinite(table.m2[reachable]))
        assert np.all(np.isnan(table.m2[~reachable]))

    def test_rejects_bad_args(self, weibull):
        st = PlatformState([0.0], weibull)
        with pytest.raises(ValueError):
            SurvivalTable.build(st, -1.0, 600.0, 5, 5)
