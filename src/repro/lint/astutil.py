"""Leaf AST helpers with no intra-package imports.

These sit below everything else in :mod:`repro.lint`: both the project
model and the rule implementations need dotted-name extraction, and
keeping it here (rather than in ``rules/``) means the model layer never
imports upward into the rules package — ``repro.lint.project`` is
importable on its own, in any order.
"""

from __future__ import annotations

import ast

__all__ = ["dotted_name", "call_name"]


def dotted_name(node: ast.expr) -> str | None:
    """``np.random.default_rng`` -> that string; None for non-name exprs."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of the called expression, or None if not a name."""
    return dotted_name(node.func)
