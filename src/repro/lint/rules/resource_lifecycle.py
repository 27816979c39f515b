"""R10 — resource-lifecycle (per-file).

PR 5/6 gave the reproduction OS-level resources that outlive a Python
exception: shared-memory segments (leaked segments survive the process
and eat ``/dev/shm``), half-written store files, and server/worker
threads that keep a daemon alive after "shutdown".  R10 enforces the
three lifecycle idioms the codebase standardizes on:

- **SharedMemory pairing** — a ``SharedMemory(...)`` acquisition (or a
  call to a file-local helper that returns one) must either be returned
  directly (ownership transfer), be the final statement, or be followed
  immediately by a ``try`` whose handlers/finally ``close()`` the
  segment — plus ``unlink()`` when it was created (``create=True``).
  Anything else leaks the segment on the very next raise.
- **atomic writes** — in service-scoped files, ``write_text`` /
  ``write_bytes`` / ``open(..., "w")`` must sit in a function that also
  calls ``replace`` (the temp-then-``os.replace`` idiom): a reader must
  never observe a torn document.
- **shutdown paths** — a class that stores a server, thread pool or
  thread on ``self`` must have *some* method releasing it
  (``shutdown``/``close``/``server_close``/``join``/``stop``/...).

Test files are exempt (fixtures and harnesses manage lifetimes
explicitly).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register

_POOL_TAILS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"})
_RELEASE_TAILS = frozenset(
    {"shutdown", "close", "server_close", "terminate", "join", "stop", "cancel"}
)
_WRITE_TAILS = frozenset({"write_text", "write_bytes"})


def _tail(callee: str | None) -> str | None:
    return callee.split(".")[-1] if callee else None


def _is_shm_call(node: ast.AST, helpers: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and _tail(call_name(node)) in ({"SharedMemory"} | set(helpers))
    )


def _creates_segment(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "create":
            return isinstance(kw.value, ast.Constant) and bool(kw.value.value)
    return False


def _target_dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _target_dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _walk_local(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested function
    definitions (each def is checked on its own)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _calls_with_tail(nodes: list[ast.stmt], tails: frozenset[str]) -> set[str]:
    """Tails found as call targets anywhere under ``nodes``; each found
    tail is returned with the dotted prefix it was called on."""
    found: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                callee = call_name(node)
                if callee and callee.split(".")[-1] in tails:
                    found.add(callee)
    return found


def _acquiring_helpers(tree: ast.Module) -> frozenset[str]:
    """File-local functions that return a fresh ``SharedMemory``: their
    call sites follow the same pairing discipline as the constructor."""
    helpers: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in _walk_local(node):
            if (
                isinstance(inner, ast.Return)
                and inner.value is not None
                and isinstance(inner.value, ast.Call)
                and _tail(call_name(inner.value)) == "SharedMemory"
            ):
                helpers.add(node.name)
    return frozenset(helpers)


@register
class ResourceLifecycleRule:
    code = "R10"
    name = "resource-lifecycle"
    description = (
        "SharedMemory acquisitions pair with close()/unlink() on all "
        "paths, service-file writes follow temp-then-os.replace, and "
        "classes owning servers/pools/threads expose a shutdown path"
    )

    def check(self, ctx) -> Iterator[Diagnostic]:
        if ctx.is_test_file:
            return
        helpers = _acquiring_helpers(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_shm(ctx, node, helpers)
                if ctx.in_package("service") or ctx.path.name in (
                    "store.py",
                    "diskcache.py",
                ):
                    yield from self._check_atomic_write(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_resources(ctx, node)

    # -- (a) SharedMemory pairing --------------------------------------

    def _check_shm(
        self,
        ctx,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        helpers: frozenset[str],
    ) -> Iterator[Diagnostic]:
        handled: set[int] = set()
        for body in self._statement_lists(fn):
            for index, stmt in enumerate(body):
                if isinstance(stmt, ast.Return) and _is_shm_call(
                    stmt.value, helpers
                ):
                    handled.add(id(stmt.value))  # ownership transfer
                elif isinstance(stmt, ast.Assign) and _is_shm_call(
                    stmt.value, helpers
                ):
                    handled.add(id(stmt.value))
                    yield from self._check_acquisition(
                        ctx, stmt, body[index + 1 :], helpers
                    )
        for node in _walk_local(fn):
            if (
                _is_shm_call(node, frozenset())
                and id(node) not in handled
                and _tail(call_name(node)) == "SharedMemory"
            ):
                yield ctx.diag(
                    node,
                    self,
                    "SharedMemory acquired in an expression; bind it to a "
                    "name (or return it) so close()/unlink() can pair with "
                    "it on failure paths",
                )

    def _check_acquisition(
        self,
        ctx,
        stmt: ast.Assign,
        rest: list[ast.stmt],
        helpers: frozenset[str],
    ) -> Iterator[Diagnostic]:
        target = None
        for t in stmt.targets:
            target = _target_dotted(t)
        if target is None:
            return
        if not rest:
            return  # final statement: nothing after it can raise here
        call = stmt.value
        assert isinstance(call, ast.Call)
        needs_unlink = (
            _tail(call_name(call)) == "SharedMemory" and _creates_segment(call)
        )
        follower = rest[0]
        if isinstance(follower, ast.Try):
            cleanup_stmts: list[ast.stmt] = []
            for handler in follower.handlers:
                cleanup_stmts.extend(handler.body)
            cleanup_stmts.extend(follower.finalbody)
            released = _calls_with_tail(cleanup_stmts, frozenset({"close"}))
            unlinked = _calls_with_tail(cleanup_stmts, frozenset({"unlink"}))
            if any(c.startswith(target) for c in released) and (
                not needs_unlink
                or any(c.startswith(target) for c in unlinked)
            ):
                return
            missing = (
                "close()+unlink()" if needs_unlink else "close()"
            )
            yield ctx.diag(
                stmt,
                self,
                f"'{target}' holds a SharedMemory segment but the guarding "
                f"try block never calls {missing} on it in its "
                "handlers/finally; the segment leaks when the block raises",
            )
            return
        missing = "close()+unlink()" if needs_unlink else "close()"
        yield ctx.diag(
            stmt,
            self,
            f"'{target}' holds a SharedMemory segment but the next "
            "statement is not a try block releasing it on failure; wrap "
            f"the remaining work in try/except calling {target}.{missing}",
        )

    def _statement_lists(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[list[ast.stmt]]:
        yield fn.body
        for node in _walk_local(fn):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if (
                    isinstance(block, list)
                    and block
                    and isinstance(block[0], ast.stmt)
                ):
                    yield block

    # -- (b) atomic writes ---------------------------------------------

    def _check_atomic_write(
        self, ctx, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        writes: list[ast.Call] = []
        has_replace = False
        for node in _walk_local(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            tail = _tail(callee)
            if tail == "replace":
                has_replace = True
            elif tail in _WRITE_TAILS:
                writes.append(node)
            elif callee == "open" and len(node.args) >= 2:
                mode = node.args[1]
                if isinstance(mode, ast.Constant) and isinstance(
                    mode.value, str
                ) and any(c in mode.value for c in "wa"):
                    writes.append(node)
        if has_replace:
            return
        for node in writes:
            yield ctx.diag(
                node,
                self,
                f"'{fn.name}' writes a service file without the "
                "temp-then-os.replace idiom; write to a sibling temp path "
                "and os.replace() it so readers never see a torn document",
            )

    # -- (c) class-owned resources need a shutdown path ----------------

    def _check_class_resources(
        self, ctx, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        owned: list[tuple[str, ast.Assign]] = []
        for method in methods:
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                kinds = {
                    _tail(call_name(c))
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Call)
                }
                kinds.discard(None)
                if not any(
                    k in _POOL_TAILS or k.endswith("Server") for k in kinds
                ):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        owned.append((target.attr, node))
        if not owned:
            return
        for method in methods:
            if _calls_with_tail(method.body, _RELEASE_TAILS):
                return
        attrs = ", ".join(sorted({attr for attr, _ in owned}))
        yield ctx.diag(
            cls,
            self,
            f"class '{cls.name}' owns live resources ({attrs}: server/"
            "pool/thread) but no method ever shuts them down; add a "
            "close()/shutdown() path that joins or closes them",
        )
