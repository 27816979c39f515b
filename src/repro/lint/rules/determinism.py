"""R1 — determinism.

The repo's reproducibility contract (README, docs/performance.md) is
that every stochastic result is a pure function of an explicit seed,
threaded as ``numpy.random.SeedSequence([seed, i])`` per trace.  Three
things silently break that contract:

1. the legacy ``np.random.*`` module-level samplers (global state);
2. the stdlib ``random`` module (global state, different stream);
3. wall-clock reads inside the ``simulation``/``core`` hot paths
   (results become a function of *when* you ran).

This rule also checks that calls to the trace generators pass an
explicit ``seed=`` — relying on their default seed hides scenario
coupling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.pragmas import clock_ok_annotations
from repro.lint.registry import register

# Module-level samplers / global-state entry points of numpy.random.
# Constructors of the explicit-seed API (default_rng, Generator,
# SeedSequence, PCG64, ...) are exactly what code *should* use instead.
_NP_GLOBAL = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "weibull",
        "gamma",
        "lognormal",
        "poisson",
        "binomial",
        "beta",
        "get_state",
        "set_state",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

# Trace generators whose ``seed`` argument must be explicit.  Value is
# the 0-based position of ``seed`` in the signature.
_TRACE_GENERATORS = {
    "generate_platform_traces": 4,
    "generate_rejuvenated_platform_traces": 4,
}

# Packages whose hot paths must not read the wall clock.
_HOT_PACKAGES = ("simulation", "core")


@register
class DeterminismRule:
    code = "R1"
    name = "determinism"
    description = (
        "no global-state RNGs (np.random.* samplers, stdlib random), no "
        "wall-clock in simulation/core, explicit seeds for trace generators"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        in_hot_path = ctx.in_package(*_HOT_PACKAGES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield ctx.diag(
                            node,
                            self,
                            "stdlib 'random' uses hidden global state; use "
                            "numpy.random.default_rng(SeedSequence(...))",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield ctx.diag(
                        node,
                        self,
                        "stdlib 'random' uses hidden global state; use "
                        "numpy.random.default_rng(SeedSequence(...))",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, in_hot_path)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, in_hot_path: bool
    ) -> Iterator[Diagnostic]:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")
        # np.random.<sampler>(...) / numpy.random.<sampler>(...)
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[-3] in ("np", "numpy")
            and parts[-1] in _NP_GLOBAL
        ):
            yield ctx.diag(
                node,
                self,
                f"'{name}' draws from numpy's global RNG; thread a "
                "Generator seeded from an explicit SeedSequence instead",
            )
            return
        if in_hot_path and name in _WALL_CLOCK:
            # a ``# reprolint: clock-ok=<reason>`` annotation declares
            # the read intentional (benchmark timing); R13 honors the
            # same pragma for transitive reachability
            line = ctx.lines[node.lineno - 1] if node.lineno <= len(ctx.lines) else ""
            if clock_ok_annotations([line]):
                return
            yield ctx.diag(
                node,
                self,
                f"wall-clock read '{name}' in a simulation/core hot path "
                "makes results depend on when they ran",
            )
            return
        tail = parts[-1]
        if tail in _TRACE_GENERATORS:
            seed_pos = _TRACE_GENERATORS[tail]
            has_kw = any(kw.arg == "seed" for kw in node.keywords)
            has_pos = len(node.args) > seed_pos
            has_splat = any(kw.arg is None for kw in node.keywords) or any(
                isinstance(a, ast.Starred) for a in node.args
            )
            if not (has_kw or has_pos or has_splat):
                yield ctx.diag(
                    node,
                    self,
                    f"'{tail}' called without an explicit seed=; pass "
                    "SeedSequence([seed, trace_index]) so traces are "
                    "reproducible and independent",
                )
