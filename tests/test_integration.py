"""End-to-end statistical checks reproducing the paper's qualitative
claims with enough traces for the signal to dominate the noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ConstantOverhead, Platform, scaled_petascale
from repro.core import expected_makespan_optimal
from repro.distributions import Exponential, Weibull
from repro.policies import (
    Bouguerra,
    DPNextFailurePolicy,
    OptExp,
    Young,
)
from repro.simulation import simulate_job, simulate_lower_bound
from repro.traces import generate_platform_traces
from repro.units import DAY, HOUR


class TestTheoremOneEndToEnd:
    # 150 single-proc traces run in ~0.1 s: measured fast despite the loop
    def test_simulated_optexp_matches_closed_form(self):
        """Monte-Carlo mean of the simulated OptExp makespan must agree
        with Theorem 1 within 3 standard errors."""
        lam, work, c, d, r = 1 / DAY, 20 * DAY, 600.0, 60.0, 600.0
        dist = Exponential(lam)
        theory = expected_makespan_optimal(lam, work, c, d, r).expected_makespan
        spans = []
        for i in range(150):
            tr = generate_platform_traces(
                dist, 1, 60 * work, downtime=d, seed=i
            ).for_job(1)
            spans.append(
                simulate_job(
                    OptExp(), work, tr, c, r, dist, platform_mtbf=DAY
                ).makespan
            )
        spans = np.asarray(spans)
        se = spans.std() / np.sqrt(len(spans))
        assert abs(spans.mean() - theory) < 3 * se + 0.002 * theory


@pytest.fixture(scope="module")
def weibull_platform_runs():
    """Full scaled Petascale platform, Weibull k=0.7 — the Table 4
    regime — with several policies over a common trace set."""
    preset = scaled_petascale(256)
    dist = Weibull.from_mtbf(preset.processor_mtbf, 0.7)
    plat = Platform(
        p=preset.ptotal,
        dist=dist,
        downtime=preset.downtime,
        overhead=ConstantOverhead(preset.overhead_seconds),
    )
    work = preset.work / preset.ptotal
    policies = {
        "Young": Young,
        "OptExp": OptExp,
        "Bouguerra": Bouguerra,
        "DPNextFailure": lambda: DPNextFailurePolicy(n_grid=96),
    }
    spans = {name: [] for name in policies}
    spans["LowerBound"] = []
    for i in range(25):
        tr = generate_platform_traces(
            dist, preset.ptotal, preset.horizon, downtime=preset.downtime, seed=i
        ).for_job(preset.ptotal)
        for name, factory in policies.items():
            res = simulate_job(
                factory(),
                work,
                tr,
                plat.checkpoint,
                plat.recovery,
                dist,
                t0=preset.start_offset,
                platform_mtbf=plat.platform_mtbf,
            )
            spans[name].append(res.makespan)
        spans["LowerBound"].append(
            simulate_lower_bound(
                work, tr, plat.checkpoint, plat.recovery, t0=preset.start_offset
            ).makespan
        )
    return {k: np.asarray(v) for k, v in spans.items()}


@pytest.mark.slow
class TestTable4Shape:
    def test_dpnextfailure_beats_periodic_heuristics(self, weibull_platform_runs):
        s = weibull_platform_runs
        assert s["DPNextFailure"].mean() < s["Young"].mean()
        assert s["DPNextFailure"].mean() < s["OptExp"].mean()

    def test_bouguerra_worst(self, weibull_platform_runs):
        s = weibull_platform_runs
        for other in ("Young", "OptExp", "DPNextFailure"):
            assert s["Bouguerra"].mean() > s[other].mean()

    def test_lower_bound_dominates(self, weibull_platform_runs):
        s = weibull_platform_runs
        lb = s["LowerBound"]
        for name, spans in s.items():
            if name != "LowerBound":
                assert np.all(lb <= spans + 1e-6)

    def test_lower_bound_ratio_plausible(self, weibull_platform_runs):
        """Paper Table 4: LowerBound degradation ~0.83; allow a band."""
        s = weibull_platform_runs
        best = np.min(
            np.vstack([v for k, v in s.items() if k != "LowerBound"]), axis=0
        )
        ratio = float(np.mean(s["LowerBound"] / best))
        assert 0.7 < ratio < 0.95


class TestExponentialParallelShape:
    def test_periodic_heuristics_near_optimal(self):
        """Figure 2's message: Young/OptExp indistinguishable for
        Exponential failures."""
        preset = scaled_petascale(256)
        dist = Exponential.from_mtbf(preset.processor_mtbf)
        work = preset.work / preset.ptotal
        young, optexp = [], []
        for i in range(20):
            tr = generate_platform_traces(
                dist, preset.ptotal, preset.horizon, downtime=60.0, seed=i
            ).for_job(preset.ptotal)
            kw = dict(
                t0=preset.start_offset,
                platform_mtbf=preset.platform_mtbf,
            )
            young.append(
                simulate_job(Young(), work, tr, 600.0, 600.0, dist, **kw).makespan
            )
            optexp.append(
                simulate_job(OptExp(), work, tr, 600.0, 600.0, dist, **kw).makespan
            )
        assert np.mean(young) == pytest.approx(np.mean(optexp), rel=0.02)
