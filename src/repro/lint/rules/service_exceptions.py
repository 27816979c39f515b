"""R15 — service-exception-contract (interprocedural).

The service tier promises that every failure surfaces as a ``repro/v1``
error envelope (HTTP) or a failed-job record (queue) — never as a
half-written response or a silently dead worker thread.  R15 proves the
negative space of that promise over the call graph: starting from each
**service entry point** — a ``do_*`` HTTP handler method or a function
handed to ``Thread(target=...)`` in a ``service/`` module — no
exception source may be transitively reachable without a converting
``except`` on the way:

- an explicit ``raise`` outside any ``try`` (label ``raise:<origin>``)
  escapes unless some function on the chain guards the call under a
  broad (``Exception``/bare) handler that performs the conversion;
- an unguarded client-socket write (``self.wfile``/``send_response``/
  ``send_error`` …, label ``io:<origin>``) can surface ``OSError`` from
  a disconnected peer, so either a broad or an ``OSError``-family
  handler on the chain discharges it.

Propagation runs over *call* edges only: a ``Thread`` target's
exceptions never return through its creator's guards — the target is
checked as its own entry point instead.  Findings anchor at the entry
``def`` line and carry the full witness chain to the origin.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.interproc import InterAnalysis, is_test_module
from repro.lint.project import ModuleInfo, ProjectModel
from repro.lint.registry import register

__all__ = ["ServiceExceptionContractRule"]


def _in_scope(mod: ModuleInfo) -> bool:
    return "service" in PurePosixPath(mod.path).parts[:-1]


@register
class ServiceExceptionContractRule:
    """R15: no exception escapes a service entry point unconverted."""

    code = "R15"
    name = "service-exception-contract"
    description = (
        "no exception may transitively escape a daemon do_* handler or "
        "a Thread worker loop in service/ without conversion to a "
        "repro/v1 error envelope or failed-job record"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        """Emit exception-escape findings for every service module."""
        analysis = model.analysis()
        for mod in model.modules.values():
            if _in_scope(mod) and not is_test_module(mod):
                yield from self._check_module(analysis, mod)

    def _check_module(
        self, analysis: InterAnalysis, mod: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for fn in mod.functions.values():
            if fn.is_test:
                continue
            fqid = f"{mod.module}.{fn.qualname}"
            if not self._is_entry(analysis, fn.name, fqid):
                continue
            for label, _hop in sorted(analysis.leaks(fqid).items()):
                kind, _, origin = label.partition(":")
                origin_name = origin.rsplit(".", 1)[-1]
                if kind == "raise":
                    detail = (
                        f"an unguarded raise in '{origin_name}' escapes "
                        "it; convert to an error envelope / failed-job "
                        "record under a broad except on the chain"
                    )
                else:
                    detail = (
                        f"an unguarded client-socket write in "
                        f"'{origin_name}' can surface OSError through "
                        "it; guard the write (except OSError) or the "
                        "chain"
                    )
                entry_kind = (
                    "HTTP handler"
                    if fn.name.startswith("do_")
                    else "worker-thread entry"
                )
                yield Diagnostic(
                    path=mod.path,
                    line=fn.lineno,
                    col=fn.col + 1,
                    code=self.code,
                    name=self.name,
                    message=(
                        f"{entry_kind} '{fn.qualname}': {detail}"
                    ),
                    trace=analysis.leak_trace(fqid, label),
                )

    @staticmethod
    def _is_entry(analysis: InterAnalysis, name: str, fqid: str) -> bool:
        return name.startswith("do_") or fqid in analysis.graph.thread_targets
