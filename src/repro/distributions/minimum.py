"""Minimum of iid lifetimes: the platform failure law under the
*all-processor rejuvenation* assumption.

If every processor is rejuvenated after each failure, platform failures
form a renewal process whose inter-arrival law is ``min(X_1..X_p)`` with
``X_i`` iid processor lifetimes:

    S_min(t) = S(t)^p.

Weibull is closed under this minimum (scale divides by ``p^{1/k}``),
Exponential too (rate multiplies by ``p``); this class provides the
general case, used by the Bouguerra and Liu policies and by the parallel
DPMakespan variant — all of which rely on the rejuvenation assumption the
paper shows to be inappropriate for ``k < 1``.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import (
    FailureDistribution,
    FloatOrArray,
    SampleSize,
    simpson,
)

__all__ = ["MinOfIID"]


class MinOfIID(FailureDistribution):
    """Distribution of the minimum of ``p`` iid copies of ``base``."""

    def __init__(self, base: FailureDistribution, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.base = base
        self.p = int(p)

    def sf(self, t):
        return np.exp(self.logsf(t))

    def logsf(self, t):
        return self.p * np.asarray(self.base.logsf(t), dtype=float)

    def pdf(self, t):
        # f_min = p f S^{p-1}
        return (
            self.p
            * np.asarray(self.base.pdf(t), dtype=float)
            * np.exp((self.p - 1) * np.asarray(self.base.logsf(t), dtype=float))
        )

    def hazard(self, t):
        """Hazard scales linearly: ``h_min = p * h``."""
        return self.p * np.asarray(self.base.hazard(t), dtype=float)

    def quantile(self, q):
        """Exact: ``S_min(t) = (1-q)``  <=>  ``S(t) = (1-q)^{1/p}``."""
        q = np.asarray(q, dtype=float)
        base_q = 1.0 - np.power(1.0 - q, 1.0 / self.p)
        return self.base.quantile(base_q)

    def mean(self) -> float:
        """``E[min] = int_0^inf S(t)^p dt`` by Simpson on ``[0, t_hi]``
        with ``t_hi`` the 1-1e-9 quantile of the minimum."""
        t_hi = float(self.quantile(1.0 - 1e-9))
        ts = np.linspace(0.0, t_hi, 4097)
        return simpson(self.sf(ts), ts)

    def sample(
        self, rng: np.random.Generator, size: SampleSize = None
    ) -> FloatOrArray:
        """Inverse-cdf sampling (O(1) in ``p``)."""
        return self.quantile(rng.random(size))

    def cache_key(self) -> tuple:
        return ("MinOfIID", self.base.cache_key(), self.p)

    def __repr__(self) -> str:
        return f"MinOfIID({self.base!r}, p={self.p})"
