"""Scenario service: always-JSON CLI contract, job queue, result store.

The service layer turns the one-shot runner into a long-lived scenario
daemon (``repro serve``) with a submit/poll/stream API backed by the
PR-1/4/5 execution tier (:class:`~repro.simulation.parallel.ParallelRunner`,
batch replay, replan memo, shared-memory ensembles).  Its pieces:

- :mod:`repro.service.envelope` — the stable JSON envelope every
  ``repro`` subcommand prints on stdout (human logs go to stderr);
- :mod:`repro.service.spec` — :class:`ScenarioSpec`, the canonical
  scenario description and its content-addressed signature;
- :mod:`repro.service.serialize` — bit-exact
  :class:`~repro.simulation.runner.ScenarioResult` <-> JSON codecs;
- :mod:`repro.service.store` — the on-disk content-addressed result
  store (signature -> archived result, versioned by code hash);
- :mod:`repro.service.queue` — the in-daemon job queue that shards
  scenario batches across ParallelRunner workers;
- :mod:`repro.service.daemon` — the local HTTP / unix-socket server;
- :mod:`repro.service.client` — the stdlib client the CLI subcommands
  ``submit`` / ``status`` / ``result`` speak through.

See ``docs/service.md`` for the architecture and lifecycle, and
``docs/usage.md`` for the CLI contract.
"""

from __future__ import annotations

import importlib

# The envelope is stdlib-only and every caller needs it.  Binding its
# names here also keeps ``repro.service.envelope`` the function, not
# the submodule of the same name.
from repro.service.envelope import (
    SCHEMA,
    envelope,
    error_envelope,
    hlog,
    validate_envelope,
)

# re-exported name -> submodule, loaded on first access (PEP 562): the
# CLI imports only the envelope, and the rest pulls in the queue, the
# runner, NumPy and ``http.client``
_LAZY = {
    "JobQueue": "queue",
    "JobRecord": "queue",
    "ResultStore": "store",
    "ScenarioSpec": "spec",
    "ServiceClient": "client",
    "ServiceError": "client",
    "scenario_result_from_dict": "serialize",
    "scenario_result_to_dict": "serialize",
    "store_version": "store",
}

__all__ = sorted(
    ["SCHEMA", "envelope", "error_envelope", "hlog", "validate_envelope", *_LAZY]
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

