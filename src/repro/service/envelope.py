"""The CLI/service JSON envelope: stdout is always machine-readable.

Design rule (modelled on SimCash's CLI plan, SNIPPETS.md section 2):
**stdout carries exactly one JSON document; every human-readable line
goes to stderr.**  The document is an *envelope* with a fixed shape so
pipelines never have to sniff which subcommand produced it:

.. code-block:: json

    {
      "schema": "repro/v1",
      "command": "run",
      "ok": true,
      "exit_code": 0,
      "data": { "...": "command-specific payload" },
      "error": null
    }

On failure ``ok`` is false, ``data`` may be null, and ``error`` holds
``{"type", "message"}``.  Exit-code semantics are uniform:

- ``0`` — success;
- ``1`` — domain failure (infeasible policy, lint findings, job failed);
- ``2`` — usage or internal error (bad arguments, unreachable daemon,
  parse errors).

Floats are encoded exactly: finite values round-trip bit-identically
through ``json`` (repr-based), and the non-finite values JSON cannot
carry are spelled as the strings ``"NaN"``, ``"Infinity"`` and
``"-Infinity"`` (see :func:`jsonable` / :func:`from_jsonable`).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, TextIO

__all__ = [
    "SCHEMA",
    "dumps",
    "emit",
    "envelope",
    "error_envelope",
    "from_jsonable",
    "hlog",
    "jsonable",
    "validate_envelope",
]

#: Envelope schema identifier; bump on any breaking envelope change.
SCHEMA = "repro/v1"

_NONFINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into strict-JSON-safe primitives.

    Finite floats pass through untouched (``json`` preserves them
    bit-exactly); NaN and the infinities become their string names so
    the output stays valid under strict parsers (``allow_nan=False``).
    Numpy scalars and arrays are lowered to Python numbers and lists.
    """
    # Lazy numpy lowering keeps this importable without the array stack.
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return jsonable(item())
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return jsonable(tolist())
    raise TypeError(f"not JSON-encodable: {type(value).__name__}")


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`jsonable` for float payloads: turn the string
    spellings of non-finite floats back into floats, recursively."""
    if isinstance(value, str) and value in _NONFINITE:
        return _NONFINITE[value]
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    return value


def dumps(payload: Any, indent: int | None = None) -> str:
    """Strict JSON encoding of an already-:func:`jsonable` payload."""
    return json.dumps(payload, allow_nan=False, indent=indent, sort_keys=False)


def envelope(
    command: str,
    data: Any,
    ok: bool = True,
    exit_code: int = 0,
    error: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Assemble the stable envelope around a command payload."""
    return {
        "schema": SCHEMA,
        "command": command,
        "ok": bool(ok),
        "exit_code": int(exit_code),
        "data": jsonable(data),
        "error": error,
    }


def error_envelope(
    command: str, exc_type: str, message: str, exit_code: int = 2
) -> dict[str, Any]:
    """Envelope for a failed command; ``data`` is null."""
    return envelope(
        command,
        None,
        ok=False,
        exit_code=exit_code,
        error={"type": exc_type, "message": str(message)},
    )


def emit(env: dict[str, Any], stream: TextIO | None = None) -> int:
    """Print an envelope to stdout and return its exit code.

    The single place CLI subcommands write stdout through, so the
    "stdout is one JSON document" contract has one enforcement point.
    """
    out = stream if stream is not None else sys.stdout
    out.write(dumps(env, indent=2))
    out.write("\n")
    out.flush()
    return int(env["exit_code"])


def hlog(message: str, stream: TextIO | None = None) -> None:
    """Human-readable log line; always stderr, never stdout."""
    err = stream if stream is not None else sys.stderr
    err.write(message)
    err.write("\n")


_REQUIRED_KEYS = ("schema", "command", "ok", "exit_code", "data", "error")


def validate_envelope(doc: Any) -> list[str]:
    """Structural check of an envelope; returns problems (empty = valid).

    Used by the JSON-contract tests and by clients that want to fail
    fast on a foreign or corrupted document.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"envelope must be an object, got {type(doc).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema {doc['schema']!r} != {SCHEMA!r}")
    if not isinstance(doc["command"], str):
        problems.append("command must be a string")
    if not isinstance(doc["ok"], bool):
        problems.append("ok must be a boolean")
    if not isinstance(doc["exit_code"], int) or isinstance(doc["exit_code"], bool):
        problems.append("exit_code must be an integer")
    if doc["error"] is not None:
        err = doc["error"]
        if not isinstance(err, dict) or not {"type", "message"} <= set(err):
            problems.append("error must be null or {type, message}")
    if doc["ok"] and doc["error"] is not None:
        problems.append("ok=true must carry error=null")
    if doc["ok"] and doc["exit_code"] != 0:
        problems.append("ok=true must carry exit_code=0")
    if not doc["ok"] and doc["exit_code"] == 0:
        problems.append("ok=false must carry a nonzero exit_code")
    return problems
