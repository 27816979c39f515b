"""Built-in reprolint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry` (each module applies the ``@register``
decorator at import time).
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    determinism_taint,
    envelope_conformance,
    lock_discipline,
    resource_lifecycle,
    seed_flow,
    service_exceptions,
    thread_hygiene,
    unit_safety,
)

__all__ = [
    "determinism",
    "determinism_taint",
    "envelope_conformance",
    "lock_discipline",
    "resource_lifecycle",
    "seed_flow",
    "service_exceptions",
    "thread_hygiene",
    "unit_safety",
]
