"""Diagnostic record emitted by lint rules, with its witness chain."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceStep:
    """One hop of an interprocedural witness chain.

    The flow rules (R13, R15) attach a chain of these to each finding:
    the first step is the flagged function, each middle step the call
    site taking the chain one function deeper, the last step the
    origin (the ambient-state read, the escaping ``raise``).  The text
    report prints the chain under its finding.
    """

    path: str
    line: int
    col: int
    function: str
    note: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.function} — {self.note}"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where, which rule, and what to do about it.

    Ordering is (path, line, col) so reports read top-to-bottom per
    file.  ``trace`` (when present) is the witness call chain of an
    interprocedural finding; it does not participate in equality.
    """

    path: str
    line: int
    col: int
    code: str = field(compare=False)
    name: str = field(compare=False)
    message: str = field(compare=False)
    trace: tuple[TraceStep, ...] = field(compare=False, default=())

    def render(self) -> str:
        """``path:line:col: CODE[name] message`` — the CLI report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code}[{self.name}] {self.message}"
