"""Reusable dataflow machinery for the lint analyses.

Two layers of the engine ask the same shape of question:

- **intraprocedural** — R11's "(min, max) envelope emissions over every
  path" is a forward monotone fixpoint over one function's CFG blocks
  (:func:`forward_fixpoint`, extracted from the original
  ``cfg.emission_bounds`` loop so other block analyses can reuse it);
- **interprocedural** — R13/R15's "which functions transitively reach a
  tainted source / leak an exception" are reachability problems over
  the project call graph.  :func:`reach_summaries` computes per-function
  summaries bottom-up over the strongly connected components of that
  graph (:func:`strongly_connected_components`, iterative Tarjan), so
  each function is summarized after everything it calls — recursion
  cycles are iterated to a local fixpoint inside their SCC.

Summaries carry a *witness* per reached label (:class:`Hop`: the next
function on a chain and the call site that takes you there), which is
what lets a finding print its full source→sink chain (:func:`witness_chain`) without storing whole paths.

Everything here is graph-shape-agnostic plain data: nodes are strings,
edges are ``(target, line, col, tag)`` tuples where ``tag`` is opaque
to this module (the exception-contract analysis passes try/except guard
categories through it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Hop",
    "forward_fixpoint",
    "reach_summaries",
    "strongly_connected_components",
    "witness_chain",
]

#: An interprocedural edge as consumed by :func:`reach_summaries`:
#: (target node, line, col, opaque tag).
Edge = tuple[str, int, int, Any]


def forward_fixpoint(
    n_nodes: int,
    edges: Iterable[tuple[int, int]],
    entry: int,
    entry_fact: Any,
    transfer: Callable[[int, Any], Any],
    merge: Callable[[Any, Any], Any],
) -> list[Any]:
    """Forward monotone fixpoint over a small integer-indexed digraph.

    ``transfer(node, fact_at_entry)`` produces the fact at the node's
    *exit*; ``merge`` joins facts arriving over different edges.  Facts
    must form a finite (or saturating) lattice with ``==`` equality —
    iteration runs until nothing changes.  Returns the fact at each
    node's entry (``None`` for unreachable nodes).
    """
    preds: dict[int, list[int]] = {}
    for src, dst in edges:
        preds.setdefault(dst, []).append(src)
    facts: list[Any] = [None] * n_nodes
    facts[entry] = entry_fact
    changed = True
    while changed:
        changed = False
        for node in range(n_nodes):
            merged = facts[node] if node != entry else entry_fact
            for p in preds.get(node, ()):
                if facts[p] is None:
                    continue
                out = transfer(p, facts[p])
                merged = out if merged is None else merge(merged, out)
            if merged != facts[node]:
                facts[node] = merged
                changed = True
    return facts


def strongly_connected_components(
    nodes: Iterable[str],
    successors: Mapping[str, Sequence[Edge]],
) -> list[list[str]]:
    """Tarjan's SCCs, iterative (lint trees exceed the recursion limit).

    Components come out in **reverse topological order** of the
    condensation — every component before the components that call into
    it — which is exactly the order bottom-up summary computation needs.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # each frame: (node, iterator over successor targets)
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            succ = successors.get(node, ())
            advanced = False
            while i < len(succ):
                target = succ[i][0]
                i += 1
                if target not in index:
                    work.append((node, i))
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


@dataclass(frozen=True)
class Hop:
    """One step of a witness chain.

    ``target`` is the next function on the chain (``None`` when the
    labelled fact originates in the summarized function itself);
    ``line``/``col`` anchor the call site — or, for an origin, the
    source expression — inside the summarized function.
    """

    target: str | None
    line: int
    col: int


def reach_summaries(
    successors: Mapping[str, Sequence[Edge]],
    sources: Mapping[str, Mapping[str, Hop]],
    propagate: Callable[[str, Any], bool] | None = None,
) -> dict[str, dict[str, Hop]]:
    """Per-function reachability summaries, bottom-up over SCCs.

    ``sources[fn][label]`` seeds function ``fn`` as an origin of
    ``label``; the result maps every function to the labels it can
    transitively reach through ``successors`` edges, each with the
    :class:`Hop` that witnesses the first step of a shortest-discovered
    chain.  ``propagate(label, tag)`` (when given) filters propagation
    per edge — the exception-contract rule uses it to stop labels at
    guarded call sites.  Within an SCC the transfer is iterated to a
    local fixpoint, so recursion converges.
    """
    summary: dict[str, dict[str, Hop]] = {}
    node_set: set[str] = set(successors)
    for edges in successors.values():
        node_set.update(e[0] for e in edges)
    node_set.update(sources)
    for node in node_set:
        summary[node] = dict(sources.get(node, {}))

    for component in strongly_connected_components(sorted(node_set), successors):
        changed = True
        while changed:
            changed = False
            for node in component:
                mine = summary[node]
                for target, line, col, tag in successors.get(node, ()):
                    theirs = summary.get(target)
                    if not theirs:
                        continue
                    for label in theirs:
                        if label in mine:
                            continue
                        if propagate is not None and not propagate(label, tag):
                            continue
                        mine[label] = Hop(target, line, col)
                        changed = True
    return summary


def witness_chain(
    summary: Mapping[str, Mapping[str, Hop]], start: str, label: str
) -> list[tuple[str, int, int]]:
    """Reconstruct a chain for ``label`` from ``start``'s summary.

    Returns ``[(function, line, col), ...]`` where each line/col is the
    call site *inside* that function leading one hop closer to the
    origin; the final entry is the origin function with the source
    expression's location.  Empty when ``start`` does not reach
    ``label``.
    """
    steps: list[tuple[str, int, int]] = []
    seen: set[str] = set()
    node: str | None = start
    while node is not None and node not in seen:
        seen.add(node)
        hop = summary.get(node, {}).get(label)
        if hop is None:
            break
        steps.append((node, hop.line, hop.col))
        node = hop.target
    return steps
