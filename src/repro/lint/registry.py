"""Rule registry.

A rule is a class with ``code`` (``"R1"``..), ``name`` (pragma-friendly
slug) and ``description``, plus one of two checks:

- **per-file rules** (R1, R2, R9, R10, R12) expose ``check(ctx)`` over a
  parsed :class:`~repro.lint.engine.FileContext`;
- **project rules** (R6, R11, R13, R15) expose ``check_project(model)``
  over the whole-program :class:`~repro.lint.project.ProjectModel`
  built from every linted file.

Registration happens at import time via the :func:`register`
decorator, and importing :mod:`repro.lint.rules` pulls in every
built-in rule.
"""

from __future__ import annotations

from typing import Iterable, Protocol


class LintRule(Protocol):
    """What every rule carries; the check method depends on its kind."""

    code: str
    name: str
    description: str


_REGISTRY: dict[str, LintRule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and index the rule by code and name."""
    rule = cls()
    for key in (rule.code, rule.name):
        if key in _REGISTRY:
            raise ValueError(f"duplicate lint rule key {key!r}")
    _REGISTRY[rule.code] = rule
    _REGISTRY[rule.name] = rule
    return cls


def is_project_rule(rule: object) -> bool:
    """True for whole-program rules (``check_project``), False for
    per-file rules (``check``)."""
    return hasattr(rule, "check_project")


def _load_builtin_rules() -> None:
    # Import for the side effect of @register; idempotent.
    import repro.lint.rules  # noqa: F401


def all_rules() -> list[LintRule]:
    """Every registered rule, ordered by code (R1, R2, ... R15)."""
    _load_builtin_rules()
    unique = {id(r): r for r in _REGISTRY.values()}
    return sorted(unique.values(), key=lambda r: (len(r.code), r.code))


def get_rule(key: str) -> LintRule:
    """Look a rule up by code (``R2``) or name (``unit-safety``)."""
    _load_builtin_rules()
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted({r.code for r in all_rules()}))
        raise KeyError(f"unknown lint rule {key!r}; known codes: {known}") from None


def resolve_selection(select: Iterable[str] | None) -> list[LintRule]:
    """Turn ``--select`` values into rule objects (all rules if None)."""
    if select is None:
        return all_rules()
    picked = {id(get_rule(k)): get_rule(k) for k in select}
    return sorted(picked.values(), key=lambda r: (len(r.code), r.code))
