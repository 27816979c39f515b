"""R13 — determinism-taint (interprocedural).

R1 flags a wall-clock read *written inside* a hot-loop file; it cannot
see a kernel calling a helper that calls ``time.time()`` two modules
away.  R13 closes that hole over the resolved call graph:

- **kernel arm** — a function defined in the kernel tier (``core/``,
  ``simulation/``, ``traces/``) must not *transitively* reach an
  ambient-state source (wall clock, environment, entropy, legacy
  ``random``).  Direct reads are deliberately left to R1: one call
  site, one owner.
- **driver arm** — a function outside the kernel tier that both reads
  a source directly and drives a kernel makes every number downstream
  ambient-state dependent; the read is flagged at its call site.

The seeded ``np.random.default_rng`` / ``SeedSequence`` plumbing is not
a source — resolution only classifies stdlib ``time``/``os``/``uuid``/
``secrets``/``datetime`` reads and the hidden-global-state ``random``
module.  A site annotated ``# reprolint: clock-ok=<reason>`` is excused
before propagation, so nothing downstream inherits it either.

Every finding carries a witness chain, printed under it, naming each
function from the flagged one to the read.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.interproc import (
    InterAnalysis,
    in_kernel_tier,
    is_test_module,
)
from repro.lint.project import ModuleInfo, ProjectModel
from repro.lint.registry import register

__all__ = ["DeterminismTaintRule"]


@register
class DeterminismTaintRule:
    """R13: ambient-state sources must stay unreachable from kernels."""

    code = "R13"
    name = "determinism-taint"
    description = (
        "no wall-clock/env/entropy/legacy-random source may be "
        "transitively reachable from core/, simulation/ or traces/ "
        "kernels, and kernel drivers must not read one directly "
        "(clock-ok pragma exempts intentional timing)"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        """Emit kernel-taint and tainted-driver findings, module by module."""
        analysis = model.analysis()
        for mod in model.modules.values():
            if is_test_module(mod):
                continue
            if in_kernel_tier(mod):
                yield from self._check_kernel(analysis, mod)
            else:
                yield from self._check_driver(analysis, mod)

    # -- kernel arm: transitive taint ----------------------------------

    def _check_kernel(
        self, analysis: InterAnalysis, mod: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for fn in mod.functions.values():
            if fn.is_test:
                continue
            fqid = f"{mod.module}.{fn.qualname}"
            for source, hop in sorted(analysis.taints(fqid).items()):
                if hop.target is None:
                    continue  # direct read: R1's call site, not ours
                trace = analysis.taint_trace(fqid, source)
                via = " -> ".join(
                    step.function.rsplit(".", 1)[-1] for step in trace
                )
                yield Diagnostic(
                    path=mod.path,
                    line=hop.line,
                    col=hop.col + 1,
                    code=self.code,
                    name=self.name,
                    message=(
                        f"kernel function '{fn.qualname}' transitively "
                        f"reaches non-deterministic source '{source}' "
                        f"(chain: {via}); kernels must be pure in their "
                        "seed — pass the value in, or annotate the read "
                        "'# reprolint: clock-ok=<reason>' if intentional"
                    ),
                    trace=trace,
                )

    # -- driver arm: direct read + kernel reach ------------------------

    def _check_driver(
        self, analysis: InterAnalysis, mod: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for fn in mod.functions.values():
            if fn.is_test:
                continue
            fqid = f"{mod.module}.{fn.qualname}"
            direct = analysis.direct_sources(mod, fn)
            if not direct:
                continue
            kernel = analysis.reaches_kernel(fqid)
            if kernel is None:
                continue
            for site, source, kind in direct:
                yield Diagnostic(
                    path=mod.path,
                    line=site.lineno,
                    col=site.col + 1,
                    code=self.code,
                    name=self.name,
                    message=(
                        f"'{fn.qualname}' reads '{source}' ({kind}) and "
                        f"drives kernel '{kernel.rsplit('.', 1)[-1]}'; "
                        "results inherit ambient state — annotate "
                        "'# reprolint: clock-ok=<reason>' if this "
                        "timing is intentional"
                    ),
                    trace=analysis.kernel_trace(fqid),
                )
