"""reprolint — domain-aware static analysis for this reproduction.

The repo's headline guarantees (bit-identical serial/parallel runs via
``SeedSequence([seed, i])``, paper-faithful arithmetic in seconds, one
JSON envelope per CLI run, a service that converts every failure) are
invariants no general-purpose linter knows about.  ``reprolint`` keeps
only the rules that guard a result-determining invariant or have caught
a real defect — per-file AST rules plus whole-program flow rules over a
cross-module model (:mod:`repro.lint.project`):

- **R1 determinism**, **R6 seed-flow**, **R13 determinism-taint** — no
  global-state RNGs or wall-clock reads in the kernels, seeds threaded
  unbroken from public entry points down to ``Distribution.sample``;
- **R2 unit-safety** — time-valued positions use ``repro.units``
  constants and time parameters are named in seconds;
- **R9 lock-discipline**, **R10 resource-lifecycle**, **R12
  thread-hygiene**, **R15 service-exception-contract** — the threaded
  service tier's locking, resource release and failure conversion;
- **R11 envelope-conformance** — stdout carries exactly one envelope.

Run via ``repro lint [paths]`` (``--select``, ``--list-rules``) or
:func:`lint_paths` / :func:`run_lint`.  Exemptions are inline pragmas:
``# reprolint: disable=R2`` (see docs/development.md).
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    FileContext,
    LintReport,
    format_diagnostic,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.lint.registry import LintRule, all_rules, get_rule, register

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "LintRule",
    "all_rules",
    "format_diagnostic",
    "get_rule",
    "lint_file",
    "lint_paths",
    "register",
    "run_lint",
]
