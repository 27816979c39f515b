"""Gamma failure distribution (extra model, decreasing hazard for k < 1)."""

from __future__ import annotations

import numpy as np

from repro.distributions.base import FailureDistribution, FloatOrArray, SampleSize

__all__ = ["Gamma"]


class Gamma(FailureDistribution):
    """Gamma distribution with shape ``k`` and scale ``theta``.

    Not evaluated in the paper but useful for robustness studies: like
    Weibull with ``k < 1`` it has a decreasing hazard rate, so the same
    qualitative conclusions should hold — an invariant our test suite and
    ablation benches exercise.
    """

    def __init__(self, k: float, theta: float):
        if k <= 0 or theta <= 0:
            raise ValueError("shape and scale must be positive")
        self.k = float(k)
        self.theta = float(theta)

    @classmethod
    def from_mtbf(cls, mtbf: float, k: float) -> "Gamma":
        """Mean of Gamma(k, theta) is ``k * theta``."""
        return cls(k, mtbf / k)

    def sf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        return special.gammaincc(self.k, np.maximum(t, 0.0) / self.theta)

    def logsf(self, t):
        return self.log_survival(np.asarray(t, dtype=float))

    def log_survival(self, t: np.ndarray) -> np.ndarray:
        # Batched kernel: one gammaincc sweep + one log over the whole
        # grid; logsf delegates here so both share one formula.
        sf = self.sf(t)
        with np.errstate(divide="ignore"):
            return np.log(sf)

    def pdf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        tpos = np.maximum(t, 1e-300)
        z = tpos / self.theta
        log_pdf = (
            (self.k - 1.0) * np.log(z)
            - z
            - special.gammaln(self.k)
            - np.log(self.theta)
        )
        return np.where(t >= 0, np.exp(log_pdf), 0.0)

    def mean(self) -> float:
        return self.k * self.theta

    def sample(
        self, rng: np.random.Generator, size: SampleSize = None
    ) -> FloatOrArray:
        return rng.gamma(self.k, self.theta, size=size)

    def quantile(self, q):
        from scipy import special

        q = np.asarray(q, dtype=float)
        out = self.theta * special.gammaincinv(self.k, q)
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        return f"Gamma(k={self.k!r}, theta={self.theta!r})"
