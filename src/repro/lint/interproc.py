"""Interprocedural analyses shared by the flow rules R13 and R15.

One :class:`InterAnalysis` is built per project model (on the first
flow rule that asks, through :meth:`ProjectModel.analysis
<repro.lint.project.ProjectModel.analysis>`).  It owns the resolved
call graph and computes, lazily and once:

- **determinism taint** — per function, the ambient-state sources
  (wall clock, environment, entropy, legacy ``random``) it transitively
  reaches, with witness hops (R13).  The seeded
  ``np.random.default_rng``/``SeedSequence`` plumbing is not a source —
  that is the carve-out the whole reproduction is built on — and a
  source call site annotated ``# reprolint: clock-ok=<reason>`` is
  excluded before propagation;
- **kernel reachability** — whether a function drives any kernel
  (a function defined under ``core/``, ``simulation/`` or ``traces/``);
- **sampling closure** — the functions that reach a randomness sink
  (R6);
- **exception leaks** — per function, the unguarded ``raise``
  statements and raise-prone socket writes it can propagate to a
  caller, stopping at broad ``except`` boundaries (R15).

Witness hops reconstruct full chains as :class:`TraceStep` tuples,
printed under each finding.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import TYPE_CHECKING

from repro.lint.callgraph import CallGraph, build_call_graph
from repro.lint.dataflow import Hop, reach_summaries, witness_chain
from repro.lint.diagnostics import TraceStep

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.project import CallSite, FunctionInfo, ModuleInfo, ProjectModel

__all__ = ["InterAnalysis", "KERNEL_SEGMENTS", "classify_source"]

#: Directory components that mark the deterministic kernel tier.
KERNEL_SEGMENTS = frozenset({"core", "simulation", "traces"})

#: Resolved external names that make results depend on ambient state,
#: mapped to the kind of state they read.
_SOURCES = {
    "time.time": "wall-clock",
    "time.time_ns": "wall-clock",
    "time.monotonic": "wall-clock",
    "time.monotonic_ns": "wall-clock",
    "time.perf_counter": "wall-clock",
    "time.perf_counter_ns": "wall-clock",
    "time.process_time": "wall-clock",
    "time.process_time_ns": "wall-clock",
    "datetime.datetime.now": "wall-clock",
    "datetime.datetime.utcnow": "wall-clock",
    "datetime.datetime.today": "wall-clock",
    "datetime.date.today": "wall-clock",
    "os.environ.get": "environment",
    "os.getenv": "environment",
    "os.getenvb": "environment",
    "os.urandom": "entropy",
    "uuid.uuid1": "entropy",
    "uuid.uuid4": "entropy",
    "secrets.token_bytes": "entropy",
    "secrets.token_hex": "entropy",
    "secrets.token_urlsafe": "entropy",
}

#: Dotted-name segments that identify raise-prone client-socket I/O
#: (BaseHTTPRequestHandler surfaces) for the leak analysis.
_SOCKET_ATTRS = frozenset({"wfile", "rfile"})
_SOCKET_TAILS = frozenset(
    {"send_response", "send_header", "end_headers", "send_error"}
)


def classify_source(resolved: str) -> str | None:
    """The ambient-state kind of a resolved external name, or None.

    Legacy stdlib ``random.*`` counts (global hidden state); numpy's
    explicit-seed API (``default_rng``, ``SeedSequence``, Generator
    methods) deliberately does not.
    """
    kind = _SOURCES.get(resolved)
    if kind is not None:
        return kind
    if resolved == "random" or resolved.startswith("random."):
        return "legacy-random"
    return None


def _is_socket_write(resolved: str) -> bool:
    parts = resolved.split(".")
    if _SOCKET_ATTRS & set(parts):
        return True
    return parts[0] == "self" and parts[-1] in _SOCKET_TAILS


def is_test_module(mod: "ModuleInfo") -> bool:
    name = PurePosixPath(mod.path).name
    return name.startswith("test_") or name == "conftest.py"


def in_kernel_tier(mod: "ModuleInfo") -> bool:
    """True for modules under a ``core``/``simulation``/``traces`` dir."""
    return bool(KERNEL_SEGMENTS & set(PurePosixPath(mod.path).parts[:-1]))


class InterAnalysis:
    """Lazily-computed interprocedural facts over one project model."""

    def __init__(self, model: "ProjectModel") -> None:
        self.model = model
        self.graph: CallGraph = build_call_graph(model)
        self._taint: dict[str, dict[str, Hop]] | None = None
        self._kernel: dict[str, dict[str, Hop]] | None = None
        self._sampling: set[str] | None = None
        self._leaks: dict[str, dict[str, Hop]] | None = None

    # -- determinism taint (R13) ---------------------------------------

    def direct_sources(
        self, mod: "ModuleInfo", fn: "FunctionInfo"
    ) -> list[tuple["CallSite", str, str]]:
        """Ambient-state reads written directly in ``fn``:
        ``(call site, resolved name, kind)``, clock-ok sites excluded."""
        fqid = f"{mod.module}.{fn.qualname}"
        out = []
        for site, resolved in self.graph.external.get(fqid, ()):
            kind = classify_source(resolved)
            if kind is None or site.lineno in mod.clock_ok:
                continue
            out.append((site, resolved, kind))
        return out

    def taint_summary(self) -> dict[str, dict[str, Hop]]:
        """fqid -> {source name -> witness hop} over call+ref edges."""
        if self._taint is None:
            sources: dict[str, dict[str, Hop]] = {}
            for mod, fn in self.model.functions():
                fqid = f"{mod.module}.{fn.qualname}"
                for site, resolved, _kind in self.direct_sources(mod, fn):
                    sources.setdefault(fqid, {}).setdefault(
                        resolved, Hop(None, site.lineno, site.col)
                    )
            self._taint = reach_summaries(self.graph.edge_map(), sources)
        return self._taint

    def taints(self, fqid: str) -> dict[str, Hop]:
        """Ambient-state sources ``fqid`` reaches, with witness hops."""
        return self.taint_summary().get(fqid, {})

    # -- kernel reachability -------------------------------------------

    _KERNEL_LABEL = "kernel"

    def kernel_summary(self) -> dict[str, dict[str, Hop]]:
        """fqid -> {"kernel": witness hop} for kernel-reaching code."""
        if self._kernel is None:
            sources = {
                f"{mod.module}.{fn.qualname}": {
                    self._KERNEL_LABEL: Hop(None, fn.lineno, fn.col)
                }
                for mod, fn in self.model.functions()
                if in_kernel_tier(mod) and not fn.is_test
            }
            self._kernel = reach_summaries(self.graph.edge_map(), sources)
        return self._kernel

    def reaches_kernel(self, fqid: str) -> str | None:
        """The first kernel function on a chain from ``fqid`` (its own
        fqid when the function *is* a kernel), or None."""
        if self._KERNEL_LABEL not in self.kernel_summary().get(fqid, {}):
            return None
        chain = witness_chain(self.kernel_summary(), fqid, self._KERNEL_LABEL)
        return chain[-1][0] if chain else None

    # -- sampling closure (R6) -----------------------------------------

    def sampling_functions(self) -> set[str]:
        """Fully-qualified ids of functions that reach a randomness sink
        (one that samples directly) through calls or function-reference
        arguments."""
        if self._sampling is None:
            sources = {
                f"{mod.module}.{fn.qualname}": {
                    "sample": Hop(None, fn.lineno, fn.col)
                }
                for mod, fn in self.model.functions()
                if fn.samples_directly
            }
            summary = reach_summaries(self.graph.edge_map(), sources)
            self._sampling = {fqid for fqid, labels in summary.items() if labels}
        return self._sampling

    # -- exception leaks (R15) -----------------------------------------

    def leak_summary(self) -> dict[str, dict[str, Hop]]:
        """fqid -> {leak label -> witness hop} over *call* edges only
        (a reference runs on another thread: the creator's guards do
        not see its exceptions — the target is its own entry point).

        Labels are ``raise:<origin fqid>`` for explicit unguarded
        ``raise`` statements and ``io:<origin fqid>`` for unguarded
        client-socket writes.  Propagation stops at ``broad`` guards for
        every label and at ``oserror`` guards for ``io:`` labels.
        """
        if self._leaks is None:
            sources: dict[str, dict[str, Hop]] = {}
            for mod, fn in self.model.functions():
                fqid = f"{mod.module}.{fn.qualname}"
                seeds: dict[str, Hop] = {}
                if fn.raises:
                    seeds[f"raise:{fqid}"] = Hop(None, fn.raises[0], 0)
                # socket writes are matched on the callee *as written*
                # (``self.wfile.write`` never resolves to a project
                # function, so it is invisible to the call graph)
                for site in fn.calls:
                    if site.guard in ("broad", "oserror"):
                        continue
                    if _is_socket_write(site.callee):
                        seeds.setdefault(
                            f"io:{fqid}", Hop(None, site.lineno, site.col)
                        )
                if seeds:
                    sources[fqid] = seeds

            def propagate(label: str, guard: object) -> bool:
                if guard == "broad":
                    return False
                if guard == "oserror" and label.startswith("io:"):
                    return False
                return True

            self._leaks = reach_summaries(
                self.graph.edge_map(frozenset({"call"})), sources, propagate
            )
        return self._leaks

    def leaks(self, fqid: str) -> dict[str, Hop]:
        """Exception-leak labels reachable from ``fqid``, with hops."""
        return self.leak_summary().get(fqid, {})

    # -- trace reconstruction ------------------------------------------

    def trace(
        self,
        summary: dict[str, dict[str, Hop]],
        start: str,
        label: str,
        origin_note: str,
    ) -> tuple[TraceStep, ...]:
        """A chain from ``start`` to ``label``'s origin as trace steps."""
        chain = witness_chain(summary, start, label)
        steps: list[TraceStep] = []
        for i, (fqid, line, col) in enumerate(chain):
            located = self.model.function(fqid)
            path = located[0].path if located else ""
            if i + 1 < len(chain):
                note = f"calls {chain[i + 1][0].rsplit('.', 1)[-1]}()"
            else:
                note = origin_note
            steps.append(
                TraceStep(
                    path=path, line=line, col=col + 1, function=fqid, note=note
                )
            )
        return tuple(steps)

    def taint_trace(self, start: str, source: str) -> tuple[TraceStep, ...]:
        """Witness chain from ``start`` to a taint ``source`` read."""
        return self.trace(
            self.taint_summary(), start, source, f"reads {source}()"
        )

    def leak_trace(self, start: str, label: str) -> tuple[TraceStep, ...]:
        """Witness chain from an entry point to a leak origin."""
        note = (
            "raises here with no converting handler"
            if label.startswith("raise:")
            else "writes the client socket unguarded (OSError escapes)"
        )
        return self.trace(self.leak_summary(), start, label, note)

    def kernel_trace(self, start: str) -> tuple[TraceStep, ...]:
        """Witness chain from ``start`` down into the kernel tier."""
        return self.trace(
            self.kernel_summary(), start, self._KERNEL_LABEL,
            "kernel function",
        )
