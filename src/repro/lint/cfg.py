"""Per-function control-flow graphs for the whole-program rules.

The project model (:mod:`repro.lint.project`) summarizes each function
as a flat bag of call sites — enough for the call-graph rules (R6, R13,
R15) but blind to *paths*: "does every return path emit exactly one
envelope?" (R11) is a question about the CFG, not the bag.  This module
builds a deliberately small basic-block CFG per function:

- blocks hold :class:`BlockEvent` records — calls (dotted callee) and
  returns (with the literal ``int`` value when there is one);
- ``if``/``while``/``for``/``try``/``match`` produce the usual edges;
  loop back-edges are kept (analyses saturate instead of unrolling);
- every statement under an active ``try`` gets a pre-statement edge to
  each handler entry, so exception paths conservatively include "the
  statement's effects may not have happened";
- an explicit uncaught ``raise`` ends in a raise sink that is *not* a
  normal exit — propagating exceptions are the caller's problem (the
  CLI's ``main`` wraps every handler in a catch-all), so R11 counts
  emissions over normal-return paths only.

CFGs are only built for files in the envelope-contract scope (see
``project.wants_cfg``).

The one analysis shipped here, :func:`emission_bounds`, computes the
(min, max) number of predicate-matching events over all normal paths,
with counts saturating at :data:`SATURATE` so loops converge.  Its
fixpoint loop lives in :func:`repro.lint.dataflow.forward_fixpoint`,
shared with the interprocedural analyses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.lint.dataflow import forward_fixpoint

__all__ = ["CFG", "BlockEvent", "SATURATE", "build_cfg", "emission_bounds"]

#: Event counts saturate here; "2" already means "more than once".
SATURATE = 2


@dataclass(frozen=True)
class BlockEvent:
    """One analyzable happening inside a basic block.

    ``kind`` is ``"call"`` (``callee`` is the dotted name as written) or
    ``"return"`` (``value`` is the returned literal ``int``, if any).
    """

    kind: str
    lineno: int
    col: int
    callee: str | None = None
    value: int | None = None


@dataclass
class CFG:
    """Basic blocks + edges of one function body."""

    blocks: list[list[BlockEvent]] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    entry: int = 0
    exits: list[int] = field(default_factory=list)  # normal-return blocks

    def events(self) -> Iterator[BlockEvent]:
        """Every call/return event in the function, block order."""
        for block in self.blocks:
            yield from block


def _expr_calls(node: ast.expr) -> Iterator[ast.Call]:
    """Call nodes inside ``node``, skipping lambda bodies (they run
    later, not here)."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Lambda):
            continue
        if isinstance(cur, ast.Call):
            yield cur
        stack.extend(ast.iter_child_nodes(cur))


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[list[BlockEvent]] = [[]]
        self.edges: set[tuple[int, int]] = set()
        self.current: int | None = 0
        self.exits: list[int] = []
        self.loops: list[tuple[int, int]] = []  # (header, after)
        self.handlers: list[list[int]] = []  # active try handler entries

    # -- plumbing ------------------------------------------------------

    def new_block(self) -> int:
        self.blocks.append([])
        return len(self.blocks) - 1

    def edge(self, src: int, dst: int) -> None:
        self.edges.add((src, dst))

    def _here(self) -> int:
        if self.current is None:  # unreachable code after return/raise
            self.current = self.new_block()
        return self.current

    def emit_expr(self, node: ast.expr | None) -> None:
        if node is None:
            return
        block = self.blocks[self._here()]
        for call in _expr_calls(node):
            callee = _dotted(call.func)
            if callee is not None:
                block.append(
                    BlockEvent(
                        kind="call",
                        lineno=call.lineno,
                        col=call.col_offset,
                        callee=callee,
                    )
                )

    # -- statements ----------------------------------------------------

    def body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if self.handlers:
            # each protected statement gets its own block, and the
            # exception edge leaves from *before* its events: when the
            # handler runs, this statement's effects may not have
            # happened (earlier statements' effects have)
            prev = self._here()
            for entries in self.handlers:
                for entry in entries:
                    self.edge(prev, entry)
            nxt = self.new_block()
            self.edge(prev, nxt)
            self.current = nxt
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        # simple statement: record its expression events in order
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.emit_expr(child)

    def _stmt_FunctionDef(self, node: ast.stmt) -> None:
        pass  # nested defs get their own CFG

    _stmt_AsyncFunctionDef = _stmt_FunctionDef
    _stmt_ClassDef = _stmt_FunctionDef

    def _stmt_Return(self, node: ast.Return) -> None:
        self.emit_expr(node.value)
        block = self._here()
        value: int | None = None
        if (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
            and not isinstance(node.value.value, bool)
        ):
            value = node.value.value
        self.blocks[block].append(
            BlockEvent(
                kind="return",
                lineno=node.lineno,
                col=node.col_offset,
                value=value,
            )
        )
        self.exits.append(block)
        self.current = None

    def _stmt_Raise(self, node: ast.Raise) -> None:
        self.emit_expr(node.exc)
        self.current = None

    def _stmt_If(self, node: ast.If) -> None:
        self.emit_expr(node.test)
        cond = self._here()
        join = self.new_block()
        for branch in (node.body, node.orelse):
            if not branch:
                self.edge(cond, join)
                continue
            entry = self.new_block()
            self.edge(cond, entry)
            self.current = entry
            self.body(branch)
            if self.current is not None:
                self.edge(self.current, join)
        self.current = join

    def _loop(
        self,
        header_expr: ast.expr | None,
        body: list[ast.stmt],
        orelse: list[ast.stmt],
        always_enters_exit_only_by_break: bool,
    ) -> None:
        before = self._here()
        header = self.new_block()
        after = self.new_block()
        self.edge(before, header)
        self.current = header
        self.emit_expr(header_expr)
        if not always_enters_exit_only_by_break:
            self.edge(header, after)
        entry = self.new_block()
        self.edge(header, entry)
        self.current = entry
        self.loops.append((header, after))
        self.body(body)
        if self.current is not None:
            self.edge(self.current, header)
        self.loops.pop()
        if orelse:
            self.current = after
            self.body(orelse)
            if self.current is not None:
                after = self._here()
        self.current = after

    def _stmt_While(self, node: ast.While) -> None:
        infinite = isinstance(node.test, ast.Constant) and bool(node.test.value)
        self._loop(node.test, node.body, node.orelse, infinite)

    def _stmt_For(self, node: ast.For) -> None:
        self.emit_expr(node.iter)
        self._loop(None, node.body, node.orelse, False)

    _stmt_AsyncFor = _stmt_For

    def _stmt_Break(self, node: ast.Break) -> None:
        if self.loops:
            self.edge(self._here(), self.loops[-1][1])
        self.current = None

    def _stmt_Continue(self, node: ast.Continue) -> None:
        if self.loops:
            self.edge(self._here(), self.loops[-1][0])
        self.current = None

    def _stmt_With(self, node: ast.With) -> None:
        for item in node.items:
            self.emit_expr(item.context_expr)
        self.body(node.body)

    _stmt_AsyncWith = _stmt_With

    def _stmt_Try(self, node: ast.Try) -> None:
        handler_entries = [self.new_block() for _ in node.handlers]
        join = self.new_block()
        self.handlers.append(handler_entries)
        self.body(node.body)
        self.handlers.pop()
        if self.current is not None:
            if node.orelse:
                self.body(node.orelse)
            if self.current is not None:
                self.edge(self.current, join)
        for handler, entry in zip(node.handlers, handler_entries):
            self.current = entry
            self.body(handler.body)
            if self.current is not None:
                self.edge(self.current, join)
        self.current = join
        if node.finalbody:
            # normal-continuation finally; exception-propagating and
            # early-return copies are not modeled (conservative enough
            # for emission counting over normal paths)
            self.body(node.finalbody)

    _stmt_TryStar = _stmt_Try

    def _stmt_Match(self, node: ast.stmt) -> None:
        self.emit_expr(node.subject)  # type: ignore[attr-defined]
        subject = self._here()
        join = self.new_block()
        self.edge(subject, join)  # no case may match
        for case in node.cases:  # type: ignore[attr-defined]
            entry = self.new_block()
            self.edge(subject, entry)
            self.current = entry
            self.body(case.body)
            if self.current is not None:
                self.edge(self.current, join)
        self.current = join


def build_cfg(node: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Basic-block CFG of one function body."""
    builder = _Builder()
    builder.body(node.body)
    if builder.current is not None:  # implicit ``return None`` fall-off
        builder.exits.append(builder.current)
    return CFG(
        blocks=builder.blocks,
        edges=sorted(builder.edges),
        entry=0,
        exits=sorted(set(builder.exits)),
    )


def emission_bounds(
    cfg: CFG, matches: Callable[[BlockEvent], bool]
) -> tuple[int, int] | None:
    """(min, max) matching events over normal entry->exit paths.

    Counts saturate at :data:`SATURATE`, so ``(1, 1)`` means "exactly
    once on every path" and any max of :data:`SATURATE` means "may
    happen more than once".  Returns None when no exit is reachable
    (infinite loop, always raises).
    """
    counts = [
        min(sum(1 for ev in block if matches(ev)), SATURATE)
        for block in cfg.blocks
    ]

    def transfer(block: int, bounds: tuple[int, int]) -> tuple[int, int]:
        lo, hi = bounds
        return (
            min(lo + counts[block], SATURATE),
            min(hi + counts[block], SATURATE),
        )

    def merge(
        a: tuple[int, int], b: tuple[int, int]
    ) -> tuple[int, int]:
        return (min(a[0], b[0]), max(a[1], b[1]))

    inb = forward_fixpoint(
        len(cfg.blocks), cfg.edges, cfg.entry, (0, 0), transfer, merge
    )

    result: tuple[int, int] | None = None
    for b in cfg.exits:
        if inb[b] is None:
            continue  # unreachable exit (code after return)
        out = transfer(b, inb[b])
        result = out if result is None else merge(result, out)
    return result
