"""R2 — unit-safety.

All times in this codebase are seconds (the paper's Theorem 1 and the
DP solvers do arithmetic directly in seconds).  Two conventions keep
that safe as the tree grows:

1. bare numeric literals that are multiples of 60/3600/86400 in
   *time-valued positions* (a keyword argument, parameter default, or
   assignment whose name denotes a duration) must be spelled with
   :mod:`repro.units` constants — ``20 * DAY`` documents itself,
   ``1728000.0`` does not;
2. time-quantity parameters are named in seconds — suffixes like
   ``_ms`` or ``_hours`` signal a unit mismatch waiting to happen.

A literal multiple of 60 that is genuinely dimensionless (a factor,
not a duration) gets a narrow ``# reprolint: disable=R2`` pragma with a
justifying comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.registry import register

# Name tokens that mark a value as a duration in seconds.
_TIME_TOKENS = frozenset(
    {
        "mtbf",
        "checkpoint",
        "recovery",
        "downtime",
        "work",
        "horizon",
        "period",
        "warmup",
        "duration",
        "timeout",
        "makespan",
        "time",
        "seconds",
        "lifetime",
        "deadline",
        "delay",
    }
)

# Tokens that mark a value as a *count* or dimensionless quantity even
# when a time token is also present: ``period_lb_linear`` is a grid
# size, not a period.
_COUNT_TOKENS = frozenset(
    {
        "n",
        "num",
        "count",
        "points",
        "grid",
        "linear",
        "geometric",
        "traces",
        "factor",
        "factors",
        "ratio",
        "index",
    }
)

# Parameter-name suffixes that contradict the seconds convention.
_BAD_UNIT_SUFFIXES = (
    "_ms",
    "_msec",
    "_millis",
    "_min",
    "_mins",
    "_minutes",
    "_hr",
    "_hrs",
    "_hours",
    "_days",
)


def _is_time_name(name: str) -> bool:
    if name.endswith("_s"):
        return True
    tokens = name.lower().split("_")
    if any(tok in _COUNT_TOKENS for tok in tokens):
        return False
    return any(tok in _TIME_TOKENS for tok in tokens)


def _suggest(value: float) -> str:
    for unit, const in ((86400, "DAY"), (3600, "HOUR"), (60, "MINUTE")):
        if value % unit == 0:
            n = value / unit
            return const if n == 1 else f"{n:g} * {const}"
    return "a repro.units expression"


@register
class UnitSafetyRule:
    code = "R2"
    name = "unit-safety"
    description = (
        "time-valued positions must use repro.units constants instead of "
        "bare 60/3600/86400 multiples; time parameters are named in seconds"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.path.name == "units.py" and ctx.in_package("repro"):
            return  # the one place the raw constants belong
        if ctx.is_test_file:
            return  # exact literals on constructed values are test idiom
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is not None and _is_time_name(kw.arg):
                        yield from self._flag_literals(ctx, kw.arg, kw.value, seen)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node, seen)
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                for n in names:
                    if _is_time_name(n):
                        yield from self._flag_literals(ctx, n, node.value, seen)
                        break
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.value is not None
                    and _is_time_name(node.target.id)
                ):
                    yield from self._flag_literals(
                        ctx, node.target.id, node.value, seen
                    )

    def _check_signature(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        seen: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg.lower().endswith(_BAD_UNIT_SUFFIXES):
                yield ctx.diag(
                    arg,
                    self,
                    f"parameter '{arg.arg}' names a non-second unit; all "
                    "times are seconds — drop the suffix or use '_s'",
                )
        positional = [*args.posonlyargs, *args.args]
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            if _is_time_name(arg.arg):
                yield from self._flag_literals(ctx, arg.arg, default, seen)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None and _is_time_name(arg.arg):
                yield from self._flag_literals(ctx, arg.arg, kw_default, seen)

    def _flag_literals(
        self,
        ctx: FileContext,
        position: str,
        value: ast.expr,
        seen: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        for sub in ast.walk(value):
            if not isinstance(sub, ast.Constant):
                continue
            v = sub.value
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            if v < 60 or v % 60 != 0:
                continue
            key = (sub.lineno, sub.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield ctx.diag(
                sub,
                self,
                f"bare literal {v:g} in time-valued position "
                f"'{position}'; write {_suggest(float(v))} from repro.units",
            )
