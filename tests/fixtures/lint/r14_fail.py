"""R14 fixture: severed reference branches and a dropped knob."""

from __future__ import annotations


def run_fast(values: list, vectorized: bool = True) -> list:
    # no-slow-path: knob-off falls off the end of the function
    if vectorized:
        return [v + v for v in values]


def run_tier(values: list, use_disk_cache: bool = True) -> list:
    # raising-slow-path: the escape hatch became an error
    if not use_disk_cache:
        raise RuntimeError("slow path removed")
    return sorted(values)


def _ensemble(values: list, vectorized: bool = True) -> list:
    if vectorized:
        return list(values)
    return [v for v in values]


def sweep(values: list, vectorized: bool = True) -> list:
    # dropped knob: _ensemble accepts vectorized but never receives it
    return _ensemble(values)
