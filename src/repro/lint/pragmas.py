"""Inline exemption pragmas.

Syntax, on the line the diagnostic is reported at::

    horizon = 60.0 * work  # reprolint: disable=R2  (60x factor, not MINUTE)

``disable=`` takes a comma-separated list of rule codes (``R2``) or
names (``unit-safety``); matching is case-insensitive.  ``disable=all``
silences every rule on that line.  Free-text justification may follow
the list (``# reprolint: disable=R1,R2 measured fast``) — only the
first whitespace-delimited token of each comma-separated chunk is a
rule key, so trailing words never silence extra rules by accident.

Pragmas are deliberately *narrow*: there is no file-level or
block-level form — an exemption covers exactly one line, so each one is
visible next to the code it excuses.  The one widening the engine
applies: a pragma written on a **decorator line** also covers the
``def``/``class`` line it decorates (diagnostics anchor on the ``def``
line, but the decorator is often where the offending mark lives), see
:func:`expand_decorator_pragmas`.

Two further directives feed the lock-discipline rule (R9) rather than
silencing anything::

    self._jobs = {}  # reprolint: guarded-by=_lock
    def stats(self):  # reprolint: single-threaded

``guarded-by=<attr>`` on an attribute assignment line *declares* the
attribute guarded by the named lock attribute (R9 then demands every
access happen under ``with self.<lock>:``); ``single-threaded`` on a
``def`` line documents a method as never called concurrently, exempting
its accesses from the discipline.

A third directive feeds the determinism rules (R1, R13)::

    t0 = time.perf_counter()  # reprolint: clock-ok=benchmark timing

``clock-ok=<reason>`` marks an ambient-state read on that line as
intentional: the call site stops being an R13 taint source (nothing
downstream inherits it) and R1 skips it too.
"""

from __future__ import annotations

import ast
import re

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")
_GUARDED_BY_RE = re.compile(r"#\s*reprolint:\s*guarded-by=([A-Za-z_]\w*)")
_SINGLE_THREADED_RE = re.compile(r"#\s*reprolint:\s*single-threaded\b")
_CLOCK_OK_RE = re.compile(r"#\s*reprolint:\s*clock-ok(?:=([^#]+))?")

ALL = "all"


def clock_ok_annotations(lines: list[str]) -> dict[int, str]:
    """Map 1-based line number -> justification of a ``clock-ok``
    annotation there.

    ``clock-ok`` declares an ambient-state read (wall clock, env,
    entropy) *intentional* — benchmark timing, log stamps — so the
    determinism rules (R1 call-site, R13 taint) leave that line alone.
    The justification after ``=`` is free text and may be empty.
    """
    out: dict[int, str] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _CLOCK_OK_RE.search(text)
        if m is not None:
            out[lineno] = (m.group(1) or "").strip()
    return out


def guarded_by_annotations(lines: list[str]) -> dict[int, str]:
    """Map 1-based line number -> lock attribute named by a
    ``guarded-by=`` annotation on that line."""
    out: dict[int, str] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _GUARDED_BY_RE.search(text)
        if m is not None:
            out[lineno] = m.group(1)
    return out


def single_threaded_lines(lines: list[str]) -> set[int]:
    """1-based line numbers carrying a ``single-threaded`` marker."""
    return {
        lineno
        for lineno, text in enumerate(lines, start=1)
        if _SINGLE_THREADED_RE.search(text)
    }


def parse_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> lowercased rule keys disabled there."""
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _PRAGMA_RE.search(text)
        if m is None:
            continue
        keys = set()
        for chunk in m.group(1).split(","):
            tokens = chunk.split()
            if not tokens:
                continue
            keys.add(tokens[0].lower())
            # everything after the first token of a chunk is free-text
            # justification; stop scanning this pragma's chunks once a
            # chunk carries trailing words (``disable=R2 measured fast``)
            if len(tokens) > 1:
                break
        if keys:
            out[lineno] = frozenset(keys)
    return out


def expand_decorator_pragmas(
    tree: ast.Module, pragmas: dict[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Extend pragmas written on decorator lines to the decorated
    ``def``/``class`` line, where diagnostics anchor."""
    if not pragmas:
        return pragmas
    out = dict(pragmas)
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        gathered: set[str] = set()
        for dec in node.decorator_list:
            for lineno in range(dec.lineno, (dec.end_lineno or dec.lineno) + 1):
                gathered |= pragmas.get(lineno, frozenset())
        if gathered:
            out[node.lineno] = out.get(node.lineno, frozenset()) | gathered
    return out


def is_disabled(
    pragmas: dict[int, frozenset[str]], line: int, code: str, name: str
) -> bool:
    keys = pragmas.get(line)
    if not keys:
        return False
    return ALL in keys or code.lower() in keys or name.lower() in keys
