"""R14 passing fixture: reference branches intact, knobs forwarded."""

from __future__ import annotations


def run_fast(values: list, vectorized: bool = True) -> list:
    if vectorized:
        return [v + v for v in values]
    return [v * 2 for v in values]


def run_tier(values: list, use_disk_cache: bool = True) -> list:
    if not use_disk_cache:
        return sorted(values)
    return sorted(values)


def _ensemble(values: list, vectorized: bool = True) -> list:
    if vectorized:
        return list(values)
    return [v for v in values]


def sweep(values: list, vectorized: bool = True) -> list:
    return _ensemble(values, vectorized=vectorized)
