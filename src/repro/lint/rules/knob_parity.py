"""R14 — knob-parity (interprocedural).

The paper's headline numbers are produced by accelerated paths that
are only trustworthy because a reference slow path computes the same
answer bit-for-bit.  Where a knob still selects between the two at run
time, that escape hatch dies in two quiet ways R14 watches for:

- **severed branch** — a function gating on a fast-path knob
  (``use_disk_cache``, ``vectorized``) whose knob-off behavior is
  falling off the end of the function (``no-slow-path``) or a bare
  ``raise`` (``raising-slow-path``) no longer *has* a reference branch
  to compare against;
- **dropped knob** — a function that accepts a knob calls a callee that
  also accepts it but does not forward it: the CLI flag still parses,
  the kernel below silently always runs one path.

Branch hazards are detected at summarize time (:mod:`repro.lint.project`
records them per function); forwarding is checked here against the
resolved call graph so method calls through ``self`` count too.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.interproc import InterAnalysis, is_test_module
from repro.lint.project import KNOB_NAMES, CallSite, FunctionInfo, ModuleInfo
from repro.lint.registry import register

__all__ = ["KnobParityRule"]

_HAZARD_DETAIL = {
    "no-slow-path": (
        "the knob-off path falls off the function instead of reaching "
        "reference code — add the slow-path branch"
    ),
    "raising-slow-path": (
        "the knob-off path only raises — the reference implementation "
        "is the escape hatch, not an error"
    ),
}


def _knobs_of(fn: FunctionInfo) -> set[str]:
    return {p.name for p in fn.params if p.name in KNOB_NAMES}


def _forwards(call: CallSite, callee: FunctionInfo, knob: str) -> bool:
    """Whether the call site passes ``knob`` through to the callee."""
    if call.has_star_args or call.has_star_kwargs:
        return True  # *args/**kwargs may carry it: benefit of the doubt
    if knob in call.keyword_names():
        return True
    if any(a.kind == "name" and a.name == knob for a in call.args):
        return True  # passed positionally by the same name
    positional = [p.name for p in callee.positional_params()]
    if knob in positional and positional.index(knob) < len(call.args):
        return True  # the knob's positional slot is filled
    return False


@register
class KnobParityRule:
    """R14: fast-path knobs keep their reference branch and thread intact."""

    code = "R14"
    name = "knob-parity"
    description = (
        "every function branching on a fast-path knob (use_disk_cache, "
        "vectorized) keeps a reference "
        "slow-path branch, and callers holding a knob forward it to "
        "callees that accept it"
    )

    def check(self, ctx) -> Iterator[Diagnostic]:  # pragma: no cover
        """Per-file pass: empty (interprocedural rule, see check_module)."""
        return iter(())

    def check_module(
        self, analysis: InterAnalysis, mod: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Emit severed-branch and dropped-knob findings for one module."""
        if is_test_module(mod):
            return
        model = analysis.model
        for fn in mod.functions.values():
            if fn.is_test:
                continue
            for knob, line, col, hazard in fn.knob_hazards:
                yield Diagnostic(
                    path=mod.path,
                    line=line,
                    col=col + 1,
                    code=self.code,
                    name=self.name,
                    message=(
                        f"'{fn.qualname}' gates on fast-path knob "
                        f"'{knob}' but {_HAZARD_DETAIL[hazard]}"
                    ),
                )
            held = _knobs_of(fn)
            if not held:
                continue
            for call in fn.calls:
                target = model.resolve_in(mod, fn, call.callee)
                if target is None:
                    continue
                located = model.function(target)
                if located is None:
                    continue
                callee = located[1]
                for knob in sorted(held & _knobs_of(callee)):
                    if _forwards(call, callee, knob):
                        continue
                    yield Diagnostic(
                        path=mod.path,
                        line=call.lineno,
                        col=call.col + 1,
                        code=self.code,
                        name=self.name,
                        message=(
                            f"'{fn.qualname}' holds fast-path knob "
                            f"'{knob}' but calls '{callee.qualname}' "
                            "without forwarding it; the flag dies here "
                            "and downstream always runs one path"
                        ),
                    )
