"""Abstract base class for failure inter-arrival time distributions."""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["FailureDistribution", "FloatOrArray", "SampleSize", "simpson"]

# Methods broadcast: scalars in -> float out, arrays in -> arrays out.
FloatOrArray = float | np.ndarray
# numpy ``size`` argument: None for a scalar draw, int or shape tuple
# for an array of draws.
SampleSize = int | tuple[int, ...] | None


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` at the odd number of
    points ``x``.

    The arithmetic of ``scipy.integrate.simpson(y, x=x)`` for an odd
    point count (its ``_basic_simpson`` with explicit spacings), in its
    operation order, so results match it bit for bit, without importing
    ``scipy.integrate`` at run time.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or y.size % 2 == 0:
        raise ValueError("simpson needs 1-D y and x of one odd length")
    n = y.size
    h = np.diff(x)
    h0 = h[0 : n - 2 : 2]
    h1 = h[1 : n - 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    tmp = hsum / 6.0 * (
        y[0 : n - 2 : 2]
        * (
            2.0
            - np.true_divide(
                1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0
            )
        )
        + y[1 : n - 1 : 2]
        * (hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0))
        + y[2:n:2] * (2.0 - h0divh1)
    )
    return float(np.sum(tmp, axis=-1))


class FailureDistribution(abc.ABC):
    """A non-negative random variable ``X`` modelling processor lifetimes.

    Subclasses must implement :meth:`sf`, :meth:`logsf`, :meth:`pdf`,
    :meth:`mean` and :meth:`sample`.  Everything else (conditional
    survival, conditional expected loss, quantiles) has generic
    implementations that subclasses may override with closed forms.

    All methods accept scalars or numpy arrays and broadcast.
    """

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def sf(self, t: FloatOrArray) -> FloatOrArray:
        """Survival function ``P(X >= t)``."""

    @abc.abstractmethod
    def logsf(self, t: FloatOrArray) -> FloatOrArray:
        """``log P(X >= t)``, stable for large ``t``."""

    def log_survival(self, t: np.ndarray) -> np.ndarray:
        """Batched log-survival kernel: ``log P(X >= t)`` over an ndarray.

        The contract of the hot path used by the survival-table builders
        (:class:`repro.core.state.SurvivalTable`,
        :meth:`repro.core.state.PlatformState.log_psuc`): one call per
        grid, ndarray in, ndarray of the same shape out, and each element
        equal to the scalar ``logsf`` of that element — so vectorized and
        scalar table builds produce bit-identical lattices.  The generic
        implementation delegates to :meth:`logsf` (already array-native
        in every family here); subclasses override when a dedicated
        batched form avoids per-element overhead (e.g.
        :class:`~repro.distributions.empirical.Empirical` answers a whole
        grid with one ``searchsorted``).
        """
        return np.asarray(self.logsf(np.asarray(t, dtype=float)), dtype=float)

    @abc.abstractmethod
    def pdf(self, t: FloatOrArray) -> FloatOrArray:
        """Probability density of ``X`` at ``t``."""

    @abc.abstractmethod
    def mean(self) -> float:
        """``E[X]``."""

    @abc.abstractmethod
    def sample(
        self, rng: np.random.Generator, size: SampleSize = None
    ) -> FloatOrArray:
        """Draw iid samples of ``X``."""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def cdf(self, t: FloatOrArray) -> FloatOrArray:
        """``P(X < t)``."""
        return 1.0 - self.sf(t)

    def hazard(self, t: FloatOrArray) -> FloatOrArray:
        """Instantaneous failure rate ``pdf(t) / sf(t)``."""
        t = np.asarray(t, dtype=float)
        sf = self.sf(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sf > 0, self.pdf(t) / sf, np.inf)

    def psuc(self, x: FloatOrArray, tau: FloatOrArray = 0.0) -> FloatOrArray:
        """Conditional survival ``P(X >= tau + x | X >= tau)``.

        This is the paper's ``Psuc(x | tau)``: the probability that a
        processor whose lifetime started ``tau`` ago computes for ``x``
        more time units without failing.
        """
        return np.exp(self.log_psuc(x, tau))

    def log_psuc(self, x: FloatOrArray, tau: FloatOrArray = 0.0) -> FloatOrArray:
        """``log Psuc(x | tau)`` computed stably via :meth:`logsf`."""
        x = np.asarray(x, dtype=float)
        tau = np.asarray(tau, dtype=float)
        return self.logsf(tau + x) - self.logsf(tau)

    def quantile(self, q: FloatOrArray) -> FloatOrArray:
        """Generic quantile by bisection on the cdf.

        ``q`` may be scalar or array; values must lie in ``[0, 1)``.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q >= 1)):
            raise ValueError("quantile levels must be in [0, 1)")
        # Bracket: grow hi until cdf(hi) > max(q).
        hi = max(self.mean(), 1e-12)
        qmax = q.max()
        for _ in range(200):
            if self.cdf(hi) > qmax:
                break
            hi *= 2.0
        lo = np.zeros_like(q)
        hi = np.full_like(q, hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out if out.size > 1 else float(out[0])

    def expected_tlost(
        self, x: float, tau: float = 0.0, n_points: int = 257
    ) -> float:
        """``E[Tlost(x | tau)]``: expected compute time before the failure,
        given that the failure strikes within the next ``x`` time units and
        the lifetime started ``tau`` ago.

        Generic implementation integrates the conditional survival:

            E = int_0^x (S(tau+t) - S(tau+x)) dt / (S(tau) - S(tau+x))

        using composite Simpson quadrature (``n_points`` must be odd).
        """
        x = float(x)
        tau = float(tau)
        if x <= 0:
            return 0.0
        if n_points % 2 == 0:
            n_points += 1
        ts = np.linspace(0.0, x, n_points)
        s = self.sf(tau + ts)
        s_end = s[-1]
        s_start = self.sf(tau)
        denom = s_start - s_end
        if denom <= 0:
            # Failure within the window is (numerically) impossible;
            # convention: no time lost.
            return 0.0
        num = simpson(s - s_end, ts)
        return float(num / denom)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def sample_conditional(
        self, rng: np.random.Generator, tau: FloatOrArray, size: SampleSize = None
    ) -> FloatOrArray:
        """Sample ``X - tau`` given ``X >= tau`` (remaining lifetime).

        Generic implementation via inverse-cdf on the conditional law:
        if ``U ~ Uniform(0,1)`` then ``X = Qx(1 - U * S(tau))`` conditioned
        appropriately.  Subclasses with closed forms should override.
        """
        u = rng.random(size)
        s_tau = self.sf(tau)
        # target survival level for X: s = s_tau * (1 - u) in (0, s_tau]
        target = s_tau * (1.0 - u)
        return self.quantile(1.0 - target) - tau

    def cache_key(self) -> tuple[object, ...]:
        """Hashable identity used by :mod:`repro.core.cache`.

        Must distinguish any two distributions that ever answer a
        survival query differently.  The parametric families carry every
        parameter in their ``repr``; data-backed distributions
        (:class:`~repro.distributions.empirical.Empirical`) override this
        with a content digest.
        """
        return (type(self).__name__, repr(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
