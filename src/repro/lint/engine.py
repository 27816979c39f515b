"""Lint engine: discovery, parsing, rule dispatch, reporting.

One serial pass over the linted tree:

1. **per file** — :func:`lint_file` parses the file, runs the per-file
   rules over the :class:`FileContext`, drops the findings an inline
   pragma silences (:mod:`repro.lint.pragmas`) and summarizes the
   module for the whole-program model;
2. **whole program** — the :class:`~repro.lint.project.ProjectModel`
   is assembled from every file's summary and the project rules (R6,
   R11, R13, R15) run over it, through the same pragma filter.

Unreadable and non-UTF-8 files surface as synthetic ``E0`` parse-error
diagnostics instead of crashing the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.pragmas import (
    expand_decorator_pragmas,
    is_disabled,
    parse_pragmas,
)
from repro.lint.project import ModuleInfo, ProjectModel, build_module_info
from repro.lint.registry import (
    LintRule,
    all_rules,
    is_project_rule,
    resolve_selection,
)

__all__ = [
    "FileContext",
    "FileResult",
    "LintReport",
    "format_diagnostic",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "run_lint",
]

# Directory names never descended into during discovery.  ``fixtures``
# holds deliberate rule violations for the linter's own test suite;
# explicit file arguments still lint them.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist", "fixtures"})


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: Path
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()

    def in_package(self, *parts: str) -> bool:
        """True if the file lives under any of the given directories
        (``ctx.in_package("simulation", "core")``)."""
        path_parts = set(self.path.parts)
        return any(p in path_parts for p in parts)

    @property
    def is_test_file(self) -> bool:
        return self.path.name.startswith("test_") and self.path.suffix == ".py"

    def diag(self, node: ast.AST, rule: LintRule, message: str) -> Diagnostic:
        """Build a :class:`Diagnostic` anchored at ``node``'s location."""
        return Diagnostic(
            path=self.posix_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            name=rule.name,
            message=message,
        )


@dataclass
class FileResult:
    """Everything the engine learned about one file."""

    path: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    module: ModuleInfo | None = None  # None when the file did not parse
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)


@dataclass
class LintReport:
    """Aggregate outcome of one :func:`run_lint` invocation."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files: int = 0

    @property
    def has_errors(self) -> bool:
        """True when any file failed to parse (``E0``) — exit code 2."""
        return any(d.code == "E0" for d in self.diagnostics)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            candidates: Iterable[Path] = [p]
        elif p.is_dir():
            candidates = sorted(
                f
                for f in p.rglob("*.py")
                if not (_SKIP_DIRS & set(f.relative_to(p).parts[:-1]))
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
        for f in candidates:
            if f not in seen:
                seen.add(f)
                yield f


def _parse_error(path: Path, line: int, col: int, message: str) -> Diagnostic:
    return Diagnostic(
        path=path.as_posix(),
        line=line,
        col=col,
        code="E0",
        name="parse-error",
        message=message,
    )


def lint_file(
    path: str | Path, rules: Sequence[LintRule] | None = None
) -> FileResult:
    """Lint one file: run the per-file rules among ``rules`` (default:
    all registered) over it, drop the findings a pragma silences, and
    summarize the module for the whole-program pass."""
    p = Path(path)
    result = FileResult(path=p.as_posix())
    try:
        source = p.read_bytes().decode("utf-8")
        tree = ast.parse(source, filename=str(p))
    except OSError as exc:
        result.diagnostics = [_parse_error(p, 1, 1, f"cannot read: {exc}")]
        return result
    except UnicodeDecodeError as exc:
        result.diagnostics = [
            _parse_error(p, 1, 1, f"cannot decode as UTF-8: {exc.reason}")
        ]
        return result
    except SyntaxError as exc:
        result.diagnostics = [
            _parse_error(
                p, exc.lineno or 1, (exc.offset or 0) + 1,
                f"cannot parse: {exc.msg}",
            )
        ]
        return result
    lines = source.splitlines()
    result.pragmas = expand_decorator_pragmas(tree, parse_pragmas(lines))
    ctx = FileContext(path=p, source=source, tree=tree, lines=lines)
    for rule in all_rules() if rules is None else rules:
        check = getattr(rule, "check", None)
        if check is None:
            continue  # a project rule: runs over the model, not one file
        result.diagnostics.extend(
            d for d in check(ctx)
            if not is_disabled(result.pragmas, d.line, d.code, d.name)
        )
    result.diagnostics.sort()
    result.module = build_module_info(p, tree, lines)
    return result


def run_lint(
    paths: Sequence[str | Path], select: Iterable[str] | None = None
) -> LintReport:
    """Lint files and directories: each selected per-file rule over every
    file, then each selected project rule over the model of them all."""
    rules = resolve_selection(select)
    results = [lint_file(f, rules) for f in iter_python_files(paths)]
    report = LintReport(files=len(results))
    for res in results:
        report.diagnostics.extend(res.diagnostics)
    project_rules = [r for r in rules if is_project_rule(r)]
    if project_rules:
        model = ProjectModel([r.module for r in results if r.module is not None])
        pragmas = {r.path: r.pragmas for r in results}
        for rule in project_rules:
            report.diagnostics.extend(
                d for d in rule.check_project(model)  # type: ignore[attr-defined]
                if not is_disabled(pragmas.get(d.path, {}), d.line, d.code, d.name)
            )
    report.diagnostics.sort()
    return report


def lint_paths(
    paths: Sequence[str | Path], select: Iterable[str] | None = None
) -> list[Diagnostic]:
    """Lint files and directories; returns all surviving diagnostics."""
    return run_lint(paths, select).diagnostics


def format_diagnostic(diag: Diagnostic) -> str:
    """Render one diagnostic as CLI report lines: the finding, then its
    witness chain (R13/R15), one indented hop per line."""
    return "\n".join(
        [diag.render(), *(f"    {step.render()}" for step in diag.trace)]
    )
