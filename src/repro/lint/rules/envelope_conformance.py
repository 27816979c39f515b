"""R11 — envelope-conformance (whole-program).

The CLI/service contract (:mod:`repro.service.envelope`) is that stdout
carries exactly one JSON document per invocation and every human line
goes to stderr.  R11 proves it statically over the
:class:`~repro.lint.project.ProjectModel`, scoped to ``cli.py`` and the
``service/`` tier:

- **stray stdout** — any ``print(...)`` that does not route to stderr
  (``file=sys.stderr``), and any ``*.stdout.write(...)``, is an error;
  the emission point is :func:`~repro.service.envelope.emit`, nothing
  else (human lines go through :func:`~repro.service.envelope.hlog`).
- **exactly-one envelope** — every ``cmd_*`` subcommand handler must
  emit exactly once on *every* return path, including exception edges.
  This is a path property, so it runs over the per-function CFG
  (:mod:`repro.lint.cfg`): the (min, max) emission bounds across all
  paths to an exit must be exactly ``(1, 1)``.
- **exit codes** — literal exit statuses must come from the documented
  ``{0, 1, 2}`` set: ``return`` literals in handlers, ``sys.exit`` /
  ``SystemExit`` arguments, and ``exit_code=`` keywords.

Test files are exempt (they capture stdout on purpose).
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.cfg import BlockEvent, emission_bounds
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import CallSite, FunctionInfo, ModuleInfo, ProjectModel
from repro.lint.registry import register

__all__ = ["EnvelopeConformanceRule", "handler_emission_bounds"]

#: The only callable allowed to write stdout in the envelope scope.
_EMITTER = "repro.service.envelope.emit"

_ALLOWED_EXIT_CODES = frozenset({0, 1, 2})


def _in_scope(mod: ModuleInfo) -> bool:
    parts = PurePosixPath(mod.path).parts
    name = parts[-1]
    if name.startswith("test_") or name == "conftest.py":
        return False
    return name == "cli.py" or "service" in parts[:-1]


def _is_emit_call(model: ProjectModel, mod: ModuleInfo, callee: str) -> bool:
    return model.resolve(mod, callee) == _EMITTER


def _literal_code(value: float | None) -> int | None:
    """The integer a literal ArgSummary value spells, if it is one."""
    if value is None or value != int(value):
        return None
    return int(value)


def handler_emission_bounds(
    model: ProjectModel,
) -> dict[str, tuple[int, int] | None]:
    """(min, max) envelope emissions per ``cmd_*`` handler in scope.

    Keyed by fully-qualified function id; ``None`` means the handler has
    no reachable exit (every path raises).  Exposed so the test suite
    can assert the exactly-once property over the real CLI directly.
    """
    out: dict[str, tuple[int, int] | None] = {}
    for mod in sorted(model.modules.values(), key=lambda m: m.path):
        if not _in_scope(mod):
            continue
        for fn in mod.functions.values():
            if fn.cfg is None or not fn.name.startswith("cmd_"):
                continue

            def matches(ev: BlockEvent, mod: ModuleInfo = mod) -> bool:
                return ev.kind == "call" and ev.callee is not None and (
                    _is_emit_call(model, mod, ev.callee)
                )

            out[f"{mod.module}.{fn.qualname}"] = emission_bounds(
                fn.cfg, matches
            )
    return out


@register
class EnvelopeConformanceRule:
    """R11: the stdout-is-one-envelope contract, proven over CFGs."""

    code = "R11"
    name = "envelope-conformance"
    description = (
        "in cli.py and service/, stdout flows only through "
        "envelope.emit, every cmd_* handler emits exactly one "
        "envelope on every return path, and literal exit codes come "
        "from {0, 1, 2}"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        """Check stdout routing, handler emission bounds and exit codes
        across every in-scope module of the project model."""
        for mod in sorted(model.modules.values(), key=lambda m: m.path):
            if not _in_scope(mod):
                continue
            for call in mod.toplevel_calls:
                yield from self._check_stdout(mod, call)
                yield from self._check_exit_literals(mod, call)
            for fn in mod.functions.values():
                if fn.is_test:
                    continue
                for call in fn.calls:
                    yield from self._check_stdout(mod, call)
                    yield from self._check_exit_literals(mod, call)
                yield from self._check_handler(model, mod, fn)

    # -- stray stdout --------------------------------------------------

    def _check_stdout(
        self, mod: ModuleInfo, call: CallSite
    ) -> Iterator[Diagnostic]:
        if call.callee.split(".")[-1] == "print":
            for key, arg in call.keywords:
                if key != "file":
                    continue
                if arg.dotted == "sys.stderr" or arg.name == "stderr":
                    return  # routed to stderr: allowed
                if arg.dotted == "sys.stdout" or arg.name == "stdout":
                    break  # explicit stdout: flagged below
                return  # unknown stream object: give it the benefit
            else:
                if call.has_star_kwargs:
                    return  # **kwargs may carry file=sys.stderr
            yield self._diag(
                mod,
                call.lineno,
                call.col,
                f"'{call.callee}(...)' writes stdout in the envelope "
                "scope; stdout carries exactly one JSON document — use "
                "hlog() for human lines or emit() for the document",
            )
        elif call.callee.endswith("stdout.write"):
            yield self._diag(
                mod,
                call.lineno,
                call.col,
                f"'{call.callee}(...)' bypasses the envelope; stdout is "
                "written only by emit()",
            )

    # -- exactly-one envelope per handler ------------------------------

    def _check_handler(
        self, model: ProjectModel, mod: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Diagnostic]:
        if fn.cfg is None:
            return

        if fn.name.startswith("cmd_"):
            def matches(ev: BlockEvent) -> bool:
                return ev.kind == "call" and ev.callee is not None and (
                    _is_emit_call(model, mod, ev.callee)
                )

            bounds = emission_bounds(fn.cfg, matches)
            if bounds is not None and bounds != (1, 1):
                lo, hi = bounds
                if hi == 0:
                    detail = "never emits an envelope"
                elif lo == 0:
                    detail = "has a return path that emits no envelope"
                else:
                    detail = (
                        "has a return path that emits more than one "
                        "envelope"
                    )
                yield self._diag(
                    mod,
                    fn.lineno,
                    fn.col,
                    f"subcommand handler '{fn.qualname}' {detail}; every "
                    "path must call emit() exactly once",
                )

        if fn.name.startswith("cmd_") or fn.name == "main":
            for ev in fn.cfg.events():
                if ev.kind == "return" and ev.value is not None and (
                    ev.value not in _ALLOWED_EXIT_CODES
                ):
                    yield self._diag(
                        mod,
                        ev.lineno,
                        ev.col,
                        f"'{fn.qualname}' returns exit code {ev.value}; "
                        "the envelope contract allows only 0 (ok), 1 "
                        "(domain failure) or 2 (usage/internal error)",
                    )

    # -- literal exit codes at call sites ------------------------------

    def _check_exit_literals(
        self, mod: ModuleInfo, call: CallSite
    ) -> Iterator[Diagnostic]:
        tail = call.callee.split(".")[-1]
        if (call.callee == "sys.exit" or tail == "SystemExit") and call.args:
            code = _literal_code(
                call.args[0].value if call.args[0].kind == "literal" else None
            )
            if code is not None and code not in _ALLOWED_EXIT_CODES:
                yield self._diag(
                    mod,
                    call.lineno,
                    call.col,
                    f"'{call.callee}({code})' uses an exit code outside "
                    "the documented {0, 1, 2} set",
                )
        for key, arg in call.keywords:
            if key != "exit_code" or arg.kind != "literal":
                continue
            code = _literal_code(arg.value)
            if code is not None and code not in _ALLOWED_EXIT_CODES:
                yield self._diag(
                    mod,
                    call.lineno,
                    call.col,
                    f"'{call.callee}(..., exit_code={code})' uses an exit "
                    "code outside the documented {0, 1, 2} set",
                )

    def _diag(
        self,
        mod: ModuleInfo,
        lineno: int,
        col: int,
        message: str,
    ) -> Diagnostic:
        return Diagnostic(
            path=mod.path,
            line=lineno,
            col=col + 1,
            code=self.code,
            name=self.name,
            message=message,
        )
