"""The resolved project-wide call graph.

Built over a :class:`~repro.lint.project.ProjectModel`, one node per
project function (fully-qualified id), with two edge kinds:

- ``"call"`` — a call site whose callee resolves (through the model's
  import/re-export chasing, class-aware ``self`` resolution, and
  one-level ``self.<attr>`` receiver types) to a project function;
- ``"ref"`` — a function *reference* passed as an argument
  (``executor.map(fn, ...)``, ``Thread(target=self._worker)``): the
  callee runs the target later, so taint flows but control does not
  return through the caller's exception guards.

Each edge carries the call site's location plus its **guard category**
(the strongest enclosing ``try`` of the site: ``""`` < ``"narrow"`` <
``"oserror"`` < ``"broad"``) so the exception-contract analysis can
stop propagation at converted boundaries.  Calls that resolve to names
*outside* the project (``time.time``, ``os.getenv``) are kept per
caller in :attr:`CallGraph.external` — the determinism-taint rule's
source set lives there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.dataflow import Edge

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.project import CallSite, ProjectModel

__all__ = ["CallEdge", "CallGraph", "build_call_graph"]

#: Callables whose ``target=`` keyword receives a function the callee
#: will invoke on another thread.
_THREAD_CTORS = frozenset({"Thread", "Timer"})


class CallEdge:
    """One resolved edge of the call graph."""

    __slots__ = ("caller", "callee", "lineno", "col", "kind", "guard")

    def __init__(
        self,
        caller: str,
        callee: str,
        lineno: int,
        col: int,
        kind: str,
        guard: str,
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.lineno = lineno
        self.col = col
        self.kind = kind  # "call" | "ref"
        self.guard = guard  # "" | "narrow" | "oserror" | "broad"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallEdge({self.caller} -> {self.callee} "
            f"@{self.lineno} {self.kind}/{self.guard or 'unguarded'})"
        )


class CallGraph:
    """Nodes (function fqids), resolved edges, and external resolutions."""

    def __init__(self, model: "ProjectModel") -> None:
        self.model = model
        #: caller fqid -> outgoing edges (calls then refs, source order)
        self.out: dict[str, list[CallEdge]] = {}
        #: caller fqid -> [(call site, resolved external dotted name)]
        self.external: dict[str, list[tuple["CallSite", str]]] = {}
        #: functions handed to Thread(target=...) — service entry points
        self.thread_targets: set[str] = set()
        self._build()

    # -- construction --------------------------------------------------

    def _build(self) -> None:
        model = self.model
        for mod, fn in model.functions():
            caller = f"{mod.module}.{fn.qualname}"
            edges: list[CallEdge] = []
            externals: list[tuple["CallSite", str]] = []
            for call in fn.calls:
                target = model.resolve_in(mod, fn, call.callee)
                if target is not None:
                    if model.function(target) is not None:
                        edges.append(
                            CallEdge(
                                caller, target, call.lineno, call.col,
                                "call", call.guard,
                            )
                        )
                    else:
                        externals.append((call, target))
                self._reference_edges(mod, fn, caller, call, edges)
            if edges:
                self.out[caller] = edges
            if externals:
                self.external[caller] = externals

    def _reference_edges(self, mod, fn, caller, call, edges) -> None:
        """Function references in argument position become ``ref`` edges
        (and ``Thread(target=...)`` targets are indexed as entry points)."""
        model = self.model
        is_thread = call.callee.split(".")[-1] in _THREAD_CTORS
        for key, arg in (
            *((None, a) for a in call.args),
            *call.keywords,
        ):
            if arg.kind != "name" or not arg.dotted:
                continue
            ref = model.resolve_in(mod, fn, arg.dotted)
            if ref is None or model.function(ref) is None:
                continue
            edges.append(
                CallEdge(caller, ref, call.lineno, call.col, "ref", call.guard)
            )
            if is_thread and key == "target":
                self.thread_targets.add(ref)

    # -- views ---------------------------------------------------------

    def successors(self, fqid: str) -> list[CallEdge]:
        """Outgoing resolved edges of one function (empty if none)."""
        return self.out.get(fqid, [])

    def edge_map(
        self, kinds: frozenset[str] = frozenset({"call", "ref"})
    ) -> dict[str, list[Edge]]:
        """Edges as :mod:`repro.lint.dataflow` tuples, filtered by kind;
        the opaque tag carries the guard category."""
        return {
            caller: [
                (e.callee, e.lineno, e.col, e.guard)
                for e in edges
                if e.kind in kinds
            ]
            for caller, edges in self.out.items()
        }


def build_call_graph(model: "ProjectModel") -> CallGraph:
    """Construct (and return) the resolved call graph of ``model``."""
    return CallGraph(model)
