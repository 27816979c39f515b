"""R12 — thread-hygiene (per-file).

Three small-but-bitter thread bugs the service tier is structurally
exposed to:

- **implicit daemon flag** — ``threading.Thread(...)`` without an
  explicit ``daemon=`` inherits the creating thread's flag: a worker
  spawned from a daemon thread silently becomes killable mid-write,
  one spawned from the main thread silently blocks interpreter exit.
  The decision must be written down.
- **swallowed worker failure** — a broad ``except Exception`` inside a
  ``while`` loop whose handler neither raises nor calls anything (just
  ``continue``/assignment) erases job failures: the loop spins on and
  the job is never marked failed.  (ruff ``E722`` already flags bare
  ``except:``; R12 covers the continue-style loop variant.)
- **unbounded shutdown waits** — ``join()``/``wait()``/``get()`` with
  no timeout inside a method named ``shutdown``/``stop``/``close``/
  ``terminate``/``drain`` turns one stuck worker into a daemon that
  never exits; shutdown paths must bound their waits.

Test files are exempt (tests wait on their own subjects deliberately).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register

_SHUTDOWN_NAMES = frozenset({"shutdown", "stop", "close", "terminate", "drain"})
_WAIT_TAILS = frozenset({"join", "wait", "get"})
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _walk_local(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested function
    definitions (each def is checked under its own name)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return False  # bare except: ruff E722's territory
    names = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [e.id for e in handler.type.elts if isinstance(e, ast.Name)]
    return any(n in _BROAD_EXCEPTIONS for n in names)


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """No raise and no call in the handler body: the failure is gone."""
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Call)):
            return False
    # pass/Ellipsis-only handlers are not the pattern: the loop variant
    # this arm targets does something (continue, an assignment)
    interesting = [
        stmt
        for stmt in handler.body
        if not isinstance(stmt, ast.Pass)
        and not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
    ]
    return bool(interesting)


@register
class ThreadHygieneRule:
    code = "R12"
    name = "thread-hygiene"
    description = (
        "threads must pass an explicit daemon= flag, worker loops must "
        "not swallow failures with call-free broad except handlers, and "
        "shutdown-path join()/wait()/get() must carry timeouts"
    )

    def check(self, ctx) -> Iterator[Diagnostic]:
        if ctx.is_test_file:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_thread_call(ctx, node)
            elif isinstance(node, ast.While):
                yield from self._check_worker_loop(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _SHUTDOWN_NAMES:
                    yield from self._check_shutdown_waits(ctx, node)

    def _check_thread_call(self, ctx, node: ast.Call) -> Iterator[Diagnostic]:
        callee = call_name(node)
        if callee is None or callee.split(".")[-1] != "Thread":
            return
        if any(kw.arg is None for kw in node.keywords):
            return  # **kwargs may carry daemon=
        if any(kw.arg == "daemon" for kw in node.keywords):
            return
        yield ctx.diag(
            node,
            self,
            f"'{callee}(...)' without an explicit daemon= flag inherits "
            "the spawning thread's daemonness; decide and write it down "
            "(daemon=False outlives main, daemon=True dies with it)",
        )

    def _check_worker_loop(self, ctx, loop: ast.While) -> Iterator[Diagnostic]:
        for node in _walk_local(loop):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _is_broad_handler(handler) and _handler_swallows(handler):
                    yield ctx.diag(
                        handler,
                        self,
                        "broad except inside a worker loop neither raises "
                        "nor reports: the failure is swallowed and the "
                        "loop spins on; record the error (mark the job "
                        "failed, log it) or re-raise",
                    )

    def _check_shutdown_waits(
        self, ctx, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for node in _walk_local(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee is None or callee.split(".")[-1] not in _WAIT_TAILS:
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue
            yield ctx.diag(
                node,
                self,
                f"'{callee}()' in shutdown path '{fn.name}' has no "
                "timeout: one stuck worker blocks shutdown forever; pass "
                "timeout= and handle the laggard",
            )
