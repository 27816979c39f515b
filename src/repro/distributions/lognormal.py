"""LogNormal failure distribution (extra heavy-tailed model)."""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import FailureDistribution, FloatOrArray, SampleSize

__all__ = ["LogNormal"]

_SQRT2 = math.sqrt(2.0)


class LogNormal(FailureDistribution):
    """LogNormal distribution: ``ln X ~ Normal(mu, sigma^2)``.

    Another decreasing-hazard (after a peak) model sometimes fit to
    repair/availability data; included for robustness studies.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def from_mtbf(cls, mtbf: float, sigma: float) -> "LogNormal":
        """Mean is ``exp(mu + sigma^2/2)``; solve for ``mu``."""
        return cls(math.log(mtbf) - sigma * sigma / 2.0, sigma)

    def sf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        tpos = np.maximum(t, 1e-300)
        z = (np.log(tpos) - self.mu) / (self.sigma * _SQRT2)
        return np.where(t <= 0, 1.0, 0.5 * special.erfc(z))

    def logsf(self, t):
        return self.log_survival(np.asarray(t, dtype=float))

    def log_survival(self, t: np.ndarray) -> np.ndarray:
        from scipy import special

        # Batched kernel (erfcx evaluated once over the whole grid);
        # logsf delegates here so both entry points share one formula.
        t = np.asarray(t, dtype=float)
        tpos = np.maximum(t, 1e-300)
        z = (np.log(tpos) - self.mu) / (self.sigma * _SQRT2)
        # log(erfc(z)/2) via scipy's scaled erfcx for stability at large z.
        out = np.log(0.5) + np.log(special.erfcx(z)) - z * z
        return np.where(t <= 0, 0.0, out)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        tpos = np.maximum(t, 1e-300)
        z = (np.log(tpos) - self.mu) / self.sigma
        val = np.exp(-0.5 * z * z) / (tpos * self.sigma * math.sqrt(2 * math.pi))
        return np.where(t > 0, val, 0.0)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma * self.sigma / 2.0)

    def sample(
        self, rng: np.random.Generator, size: SampleSize = None
    ) -> FloatOrArray:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def quantile(self, q):
        from scipy import special

        q = np.asarray(q, dtype=float)
        out = np.exp(self.mu + self.sigma * _SQRT2 * special.erfinv(2.0 * q - 1.0))
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu!r}, sigma={self.sigma!r})"
