"""Platform survival state for parallel jobs.

For a tightly-coupled job on ``p`` processors, the system state at a
decision point is the vector of processor ages ``(tau_1, ..., tau_p)``
(time since each processor's current lifetime started).  The probability
that the whole platform survives ``x`` more seconds is

    Psuc(x | tau_1..tau_p) = prod_i P(X >= tau_i + x | X >= tau_i).

Two observations make this tractable (Section 3.3 of the paper):

1. Between failures all ages advance *identically*, so along any
   failure-free execution prefix the whole state is described by a single
   scalar advance ``s`` and the collapsed table

       M(s) = sum_i log S(tau_i + s),

   giving ``log Psuc(delta | advance s) = M(s + delta) - M(s)``.
   :class:`SurvivalTable` precomputes ``M`` on the DP's quantum grid,
   only at the advances a DP state can reach (about half the grid).

2. The paper additionally compresses the age vector itself: keep the
   ``nexact`` smallest ages exactly and map the remaining ages onto
   ``napprox`` reference values chosen by interpolating survival
   probabilities between the smallest and largest remaining age
   (:meth:`PlatformState.compress`).  This cuts the cost of building
   ``M`` from ``O(p)`` to ``O(nexact + napprox)`` per grid point; its
   accuracy is measured by ``bench_ablation_state_approx``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import FailureDistribution

__all__ = ["PlatformState", "SurvivalTable"]


class PlatformState:
    """Ages of the processors running a job, plus their failure law.

    Parameters
    ----------
    taus:
        1-D array of non-negative processor ages.
    dist:
        The (common, iid) failure inter-arrival distribution.
    weights:
        Optional per-age multiplicities (used by compressed states where a
        reference age stands for many processors).  Defaults to all-ones.
    """

    def __init__(self, taus, dist: FailureDistribution, weights=None):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if taus.ndim != 1 or taus.size == 0:
            raise ValueError("taus must be a non-empty 1-D array")
        if np.any(taus < 0):
            raise ValueError("ages must be non-negative")
        self.taus = taus
        self.dist = dist
        if weights is None:
            self.weights = np.ones_like(taus)
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != taus.shape:
                raise ValueError("weights must match taus in shape")

    @property
    def num_processors(self) -> int:
        return int(round(self.weights.sum()))

    def log_psuc(self, x, advance: float = 0.0):
        """``log Psuc(x)`` after all ages advanced by ``advance``.

        ``x`` may be an array: the whole advance grid is answered with
        one batched :meth:`~repro.distributions.base.FailureDistribution
        .log_survival` kernel call (per-element values identical to the
        scalar path).
        """
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        taus = self.taus + advance
        # broadcast: (p, len(x))
        contrib = self.dist.log_survival(
            taus[:, None] + x[None, :]
        ) - self.dist.log_survival(taus[:, None])
        out = self.weights @ contrib
        return float(out[0]) if scalar else out

    def psuc(self, x, advance: float = 0.0):
        """``Psuc(x)`` after all ages advanced by ``advance``."""
        return np.exp(self.log_psuc(x, advance))

    def advanced(self, s: float) -> "PlatformState":
        """State after ``s`` failure-free seconds."""
        return PlatformState(self.taus + s, self.dist, self.weights)

    # ------------------------------------------------------------------
    # the paper's (nexact, napprox) compression
    # ------------------------------------------------------------------

    def compress(self, nexact: int = 10, napprox: int = 100) -> "PlatformState":
        """Compress to ``nexact`` exact smallest ages + at most ``napprox``
        weighted reference ages, following Section 3.3.

        Reference values interpolate *survival probabilities* linearly
        between the smallest and largest remaining age:

            tau~_i = S^{-1}( ((n-i)/(n-1)) S(tau~_1) + ((i-1)/(n-1)) S(tau~_n) )

        and every remaining processor is mapped to the nearest reference.
        """
        # weights are exactly 1.0 by construction for uncompressed states
        if self.weights is not None and not np.all(self.weights == 1.0):  # reprolint: disable=R3
            raise ValueError("can only compress an uncompressed state")
        p = self.taus.size
        if p <= nexact + napprox:
            return PlatformState(self.taus, self.dist, self.weights)
        order = np.argsort(self.taus)
        sorted_taus = self.taus[order]
        exact = sorted_taus[:nexact]
        rest = sorted_taus[nexact:]
        lo, hi = rest[0], rest[-1]
        if hi - lo <= 0:
            refs = np.array([lo])
            counts = np.array([float(rest.size)])
        else:
            # one batched survival call for both anchors
            s_lo, s_hi = np.asarray(self.dist.sf(np.array([lo, hi])), dtype=float)
            frac = np.linspace(0.0, 1.0, napprox)
            target_sf = (1.0 - frac) * s_lo + frac * s_hi
            # S is decreasing, so S^{-1}(s) = quantile(1 - s).
            refs = np.asarray(
                self.dist.quantile(np.clip(1.0 - target_sf, 0.0, 1.0 - 1e-15)),
                dtype=float,
            )
            refs = np.maximum.accumulate(refs)  # enforce monotonicity
            refs[0], refs[-1] = lo, hi
            # nearest-reference assignment via midpoints
            mids = 0.5 * (refs[:-1] + refs[1:])
            idx = np.searchsorted(mids, rest)
            counts = np.bincount(idx, minlength=refs.size).astype(float)
            keep = counts > 0
            refs, counts = refs[keep], counts[keep]
        taus = np.concatenate([exact, refs])
        weights = np.concatenate([np.ones_like(exact), counts])
        return PlatformState(taus, self.dist, weights)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlatformState(p={self.num_processors}, entries={self.taus.size}, "
            f"dist={self.dist!r})"
        )


@dataclass
class SurvivalTable:
    """Collapsed log-survival table on the exact DP lattice.

    Every advance a DPNextFailure state can reach has the form
    ``a*u + b*C`` (``a`` work quanta executed, ``b`` checkpoints taken),
    so we tabulate

        m2[a, b] = sum_i w_i log S(tau_i + a*u + b*C)

    exactly — no rounding of the checkpoint duration to the quantum grid.
    Then ``log Psuc`` of executing ``i`` more quanta plus one checkpoint
    from state ``(a, b)`` is ``m2[a+i, b+1] - m2[a, b]``.

    Every chunk holds at least one quantum, so a reachable state has
    ``b <= a``, and so does the cell ``(a+i, b+1)`` a lookup from it
    reads: only the cells with ``b <= a`` (about half the lattice) are
    tabulated.  The others hold NaN, so a stray read poisons the result
    instead of passing silently.
    """

    m2: np.ndarray
    u: float
    c: float

    @classmethod
    def build(
        cls, state: PlatformState, u: float, c: float, na: int, nb: int
    ) -> "SurvivalTable":
        """Tabulate the reachable cells of ``a = 0..na``, ``b = 0..nb``.

        The cells are taken in blocks of ``max(64, 8192 // p)``: per
        block, one batched
        :meth:`~repro.distributions.base.FailureDistribution.log_survival`
        kernel call covers the ``(p, cells)`` advance grid and one
        ``einsum`` collapses it over the processor weights.  Each cell
        carries the same bits as the scalar reference sum
        ``sum_i w_i logsf(tau_i + a*u + b*c)`` accumulated in processor
        order (the test oracle in ``tests/nextfailure_oracle.py``),
        whatever the block size.

        Blocks keep every kernel temporary near 64 KB.  One call over
        all cells makes temporaries of a few MB, which the allocator
        maps fresh and hands back to the OS after each replan: a Table 4
        pass then spent ~20% of its wall time in ~360,000 page faults,
        and the cost of a fault varies with the host's memory load.
        """
        if u <= 0 or na < 0 or nb < 0:
            raise ValueError("need positive quantum and non-negative sizes")
        rows = np.arange(na + 1, dtype=float)[:, None]
        cols = np.arange(nb + 1, dtype=float)[None, :]
        reachable = cols <= rows
        grid = (rows * u + cols * c)[reachable]
        cells = np.empty(grid.size)
        step = max(64, 8192 // state.taus.size)
        for lo in range(0, grid.size, step):
            block = grid[lo : lo + step]
            logsf = state.dist.log_survival(state.taus[:, None] + block)
            cells[lo : lo + step] = np.einsum("i,ij->j", state.weights, logsf)
        m2 = np.full((na + 1, nb + 1), np.nan)
        m2[reachable] = cells
        # Floor at exp(-700) ~ 1e-304 so that differences of two
        # "impossible" entries stay finite (0 probability) instead of
        # producing inf - inf = nan in the DP.  NaN cells stay NaN.
        return cls(m2=np.maximum(m2, -700.0), u=float(u), c=float(c))

    def log_psuc(self, a, b, i):
        """``log Psuc`` of ``i`` quanta + one checkpoint from ``(a, b)``."""
        return self.m2[np.add(a, i), np.add(b, 1)] - self.m2[a, b]
