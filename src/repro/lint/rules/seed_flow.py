"""R6 — seed-flow (whole-program).

The reproduction's contract is that every stochastic result is a pure
function of an explicit seed (``SeedSequence([seed, i])`` per trace).
R1 checks single call sites; R6 checks the *chains*: every path from a
public entry point in ``traces/``, ``simulation/`` (the runner), or
``experiments/`` down to ``Distribution.sample`` must thread a
``seed``/``rng`` argument.  Four hazards, computed over the
:class:`~repro.lint.project.ProjectModel` call graph:

- **unseeded generator** — ``np.random.default_rng()`` with no
  arguments pulls OS entropy: the result is different every run.
- **missing seed parameter** — a public function in the seeded packages
  that (transitively) samples randomness but offers no ``seed``/``rng``
  parameter cannot be driven reproducibly by its callers.
- **dropped seed** — a function that *has* a seed in scope calls a
  seed-accepting function without forwarding one; the callee silently
  falls back to its default and decouples from the caller's stream.
- **shadowed seed** — a function rebinds ``seed``/``rng`` to a
  constant-only expression, severing the thread from its caller.

Functions named ``test_*`` and test modules are exempt: tests pin
explicit constants by design.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import (
    SEED_PARAM_NAMES,
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.lint.registry import register

# Packages whose entry points must thread seeds (matched on path parts,
# like R1's hot-path scoping, so fixtures can opt in by directory name).
_SEEDED_PACKAGES = frozenset({"traces", "simulation", "experiments"})


def _in_scope(mod: ModuleInfo) -> bool:
    parts = PurePosixPath(mod.path).parts
    if any(p.startswith("test_") or p == "conftest.py" for p in parts):
        return False
    return bool(_SEEDED_PACKAGES & set(parts[:-1]))


def _passes_seed(call: CallSite, callee: FunctionInfo) -> bool:
    """Does this call site forward any seed-carrying argument?"""
    if call.has_star_args or call.has_star_kwargs:
        return True  # conservatively assume the splat carries it
    if call.keyword_names() & SEED_PARAM_NAMES:
        return True
    positional = callee.positional_params()
    for index, param in enumerate(positional):
        if param.name in SEED_PARAM_NAMES and len(call.args) > index:
            return True
    return False


@register
class SeedFlowRule:
    code = "R6"
    name = "seed-flow"
    description = (
        "seed/rng must thread from public entry points in traces/, "
        "simulation/ and experiments/ down to Distribution.sample: no "
        "unseeded generators, dropped seeds, or constant shadows"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        sampling = model.analysis().sampling_functions()
        for mod in sorted(model.modules.values(), key=lambda m: m.path):
            if not _in_scope(mod):
                continue
            for fn in mod.functions.values():
                if fn.is_test:
                    continue
                yield from self._check_function(model, mod, fn, sampling)

    def _check_function(
        self,
        model: ProjectModel,
        mod: ModuleInfo,
        fn: FunctionInfo,
        sampling: set[str],
    ) -> Iterator[Diagnostic]:
        fn_id = f"{mod.module}.{fn.qualname}"
        seed_params = fn.seed_params()

        # unseeded generator: default_rng() with no arguments
        for call in fn.calls:
            if (
                call.callee.split(".")[-1] == "default_rng"
                and not call.args
                and not call.keywords
                and not call.has_star_args
                and not call.has_star_kwargs
            ):
                yield self._diag(
                    mod,
                    call.lineno,
                    call.col,
                    f"'{call.callee}()' with no arguments draws OS entropy "
                    "in a seeded package; pass a seed or SeedSequence",
                )

        # missing seed parameter on a public sampling entry point
        if fn.is_public and fn_id in sampling and not seed_params:
            yield self._diag(
                mod,
                fn.lineno,
                fn.col,
                f"public function '{fn.qualname}' reaches "
                "Distribution.sample but has no seed/rng parameter; "
                "callers cannot reproduce its results",
            )

        # dropped seed: seed in scope, callee accepts one, none forwarded
        if seed_params:
            for call in fn.calls:
                resolved = model.resolve(mod, call.callee)
                if resolved is None:
                    continue
                target = model.function(resolved)
                if target is None:
                    continue
                _callee_mod, callee = target
                if not callee.seed_params():
                    continue
                if not _passes_seed(call, callee):
                    yield self._diag(
                        mod,
                        call.lineno,
                        call.col,
                        f"call to '{call.callee}' drops the threaded seed: "
                        f"'{sorted(seed_params)[0]}' is in scope but no "
                        "seed/rng argument is passed, so the callee falls "
                        "back to its default stream",
                    )

            # shadowed seed: rebinding seed/rng to a constant expression
            for name, lineno, col in fn.seed_shadows:
                yield self._diag(
                    mod,
                    lineno,
                    col,
                    f"assignment shadows the threaded seed: '{name}' is "
                    "rebound to a constant expression inside a function "
                    "that takes an explicit seed/rng",
                )

    def _diag(
        self, mod: ModuleInfo, lineno: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=mod.path,
            line=lineno,
            col=col + 1,
            code=self.code,
            name=self.name,
            message=message,
        )
