"""R9 — lock-discipline (per-file).

The service tier is threaded: a :class:`~repro.service.queue.JobQueue`
worker pool mutates shared job tables, and the DP caches are hit from
request handlers.  The repo's concurrency convention is *attribute
guarding*: a class that creates a ``threading.Lock``/``RLock`` names
the state that lock protects, and every access of that state happens
inside a ``with self.<lock>:`` region.  R9 enforces it per class:

- **guarded attributes** are declared with an inline annotation on
  their assignment line (``self._jobs = {}  # reprolint:
  guarded-by=_lock``) or *inferred*: an attribute accessed under the
  lock at least twice and more often locked than not is treated as
  guarded — the stray unlocked access is exactly the bug class this
  rule exists for;
- every read or write of a guarded attribute outside a lock region is
  flagged, unless the enclosing method is documented single-threaded
  (``__init__``/``__del__``/``__post_init__``, or a ``# reprolint:
  single-threaded`` marker on its ``def`` line);
- a ``guarded-by=`` annotation naming a lock the class never creates is
  itself an error (the declaration would silently protect nothing).

Test files are exempt: tests drive classes single-threaded by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.astutil import call_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.pragmas import guarded_by_annotations, single_threaded_lines
from repro.lint.registry import register

_LOCK_FACTORY_TAILS = frozenset({"Lock", "RLock"})
_SINGLE_THREADED_NAMES = frozenset({"__init__", "__del__", "__post_init__"})


@dataclass(frozen=True)
class _Access:
    attr: str
    lineno: int
    col: int
    locked: bool
    method: str


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_creations(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names of ``self.X`` attributes bound to a Lock/RLock factory."""
    locks: set[str] = set()
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign):
            continue
        for call in ast.walk(node.value):
            if not isinstance(call, ast.Call):
                continue
            callee = call_name(call)
            if callee is None:
                continue
            if callee.split(".")[-1] in _LOCK_FACTORY_TAILS:
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        locks.add(attr)
    return locks


def _collect_accesses(
    method: ast.FunctionDef | ast.AsyncFunctionDef, lock_attrs: set[str]
) -> list[_Access]:
    """Every ``self.X`` touch in the method, tagged with whether it sits
    inside a ``with self.<lock>:`` region."""
    accesses: list[_Access] = []

    def scan(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            holds = any(
                _self_attr(item.context_expr) in lock_attrs
                for item in node.items
            )
            for item in node.items:
                scan(item.context_expr, locked)
            for stmt in node.body:
                scan(stmt, locked or holds)
            return
        attr = _self_attr(node) if isinstance(node, ast.Attribute) else None
        if attr is not None:
            accesses.append(
                _Access(attr, node.lineno, node.col_offset, locked, method.name)
            )
        for child in ast.iter_child_nodes(node):
            scan(child, locked)

    for stmt in method.body:
        scan(stmt, False)
    return accesses


def _assigned_attrs_by_line(
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for node in ast.walk(method):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                out.setdefault(node.lineno, []).append(attr)
    return out


@register
class LockDisciplineRule:
    code = "R9"
    name = "lock-discipline"
    description = (
        "classes creating a threading.Lock/RLock must access guarded "
        "attributes (declared via '# reprolint: guarded-by=<lock>' or "
        "inferred from majority-locked use) inside 'with self.<lock>:' "
        "regions, outside single-threaded methods"
    )

    def check(self, ctx) -> Iterator[Diagnostic]:
        if ctx.is_test_file:
            return
        annotations = guarded_by_annotations(ctx.lines)
        st_lines = single_threaded_lines(ctx.lines)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node, annotations, st_lines)

    def _check_class(
        self,
        ctx,
        cls: ast.ClassDef,
        annotations: dict[int, str],
        st_lines: set[int],
    ) -> Iterator[Diagnostic]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs: set[str] = set()
        for method in methods:
            lock_attrs |= _lock_creations(method)
        if not lock_attrs:
            return

        single_threaded = {
            m.name
            for m in methods
            if m.name in _SINGLE_THREADED_NAMES or m.lineno in st_lines
        }

        # declared guards: guarded-by annotations on assignment lines
        declared: dict[str, str] = {}  # attr -> lock
        for method in methods:
            by_line = _assigned_attrs_by_line(method)
            for lineno, lock in annotations.items():
                for attr in by_line.get(lineno, ()):
                    if lock not in lock_attrs:
                        yield ctx.diag(
                            cls,
                            self,
                            f"'{attr}' is declared guarded-by '{lock}' but "
                            f"class '{cls.name}' creates no such lock "
                            f"attribute (has: {', '.join(sorted(lock_attrs))})",
                        )
                        continue
                    declared[attr] = lock

        accesses: list[_Access] = []
        for method in methods:
            accesses.extend(_collect_accesses(method, lock_attrs))

        # inferred guards: majority-locked attributes (outside
        # single-threaded methods), with at least two locked touches
        counts: dict[str, list[int]] = {}  # attr -> [locked, unlocked]
        for acc in accesses:
            if acc.method in single_threaded or acc.attr in lock_attrs:
                continue
            pair = counts.setdefault(acc.attr, [0, 0])
            pair[0 if acc.locked else 1] += 1
        guarded = dict(declared)
        for attr, (locked, unlocked) in sorted(counts.items()):
            if attr not in guarded and locked >= 2 and locked > unlocked:
                guarded[attr] = sorted(lock_attrs)[0]

        for acc in accesses:
            if acc.locked or acc.attr not in guarded:
                continue
            if acc.method in single_threaded:
                continue
            how = (
                "declared guarded-by"
                if acc.attr in declared
                else "locked on its other accesses, so inferred guarded-by"
            )
            yield Diagnostic(
                path=ctx.posix_path,
                line=acc.lineno,
                col=acc.col + 1,
                code=self.code,
                name=self.name,
                message=(
                    f"'self.{acc.attr}' is {how} '{guarded[acc.attr]}' but "
                    f"'{cls.name}.{acc.method}' touches it outside a 'with "
                    f"self.{guarded[acc.attr]}:' region; take the lock, or "
                    "mark the method '# reprolint: single-threaded'"
                ),
            )
