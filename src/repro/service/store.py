"""Content-addressed, disk-backed archive of scenario results.

Maps a :meth:`ScenarioSpec.signature` to its archived
:class:`~repro.simulation.runner.ScenarioResult` so a re-submitted
scenario is served from disk instead of re-solved — across processes,
CI runs and hosts.  The layout:

.. code-block:: text

    .repro-service/
      store/
        <code-hash>/            one directory per code version
          <sig[:2]>/<sig>.json  one entry per scenario signature
      solvecache/               sibling tier: persistent DP/replan
        <code-hash>/            solves (:mod:`repro.core.diskcache`),
          <kind>/<d[:2]>/<d>.solve  salted by the same store_version()

Each entry is a single JSON document carrying the spec (for
inspection), the serialized result, and a **hit counter** that the
service surfaces in its status JSON.  Writes are atomic
(write-temp + ``os.replace``), so a crashed run never leaves a
half-entry that later reads would trust.

Versioning: :func:`store_version` digests the *source bytes* of every
package that determines simulation results (core, simulation, policies,
distributions, traces, cluster, units).  Any code change in those
packages changes the hash, which both salts every new signature and
moves the store to a fresh subdirectory — stale results are never
served, and a wipe is ``rm -rf .repro-service/`` at any time (the store
is a cache, not a database).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.service.envelope import dumps

__all__ = [
    "ResultStore",
    "StoreEntry",
    "default_store_dir",
    "store_version",
]

_STORE_DIR_NAME = ".repro-service"

#: Bump to retire every archived entry on a semantic change that the
#: source hash cannot see (e.g. a serialization layout change).
_STORE_LAYOUT_VERSION = 1

#: Packages whose source determines simulation results; a change to any
#: of them must retire archived results.
_RESULT_PACKAGES = (
    "core",
    "simulation",
    "policies",
    "distributions",
    "traces",
    "cluster",
)

_version_memo: dict[str, str] = {}


def store_version() -> str:
    """Code hash of the result-determining packages (16 hex chars).

    Computed once per process: SHA-256 over ``(relative path, content
    digest)`` of every ``.py`` file under the result-determining
    subpackages of :mod:`repro`, plus ``units.py`` and the layout
    version.  Falls back to the package version string if the source
    tree is unreadable (e.g. a zipapp install).
    """
    cached = _version_memo.get("version")
    if cached is not None:
        return cached
    try:
        import repro

        root = Path(repro.__file__).resolve().parent
        parts: list[str] = [f"layout={_STORE_LAYOUT_VERSION}"]
        files: list[Path] = [root / "units.py"]
        for package in _RESULT_PACKAGES:
            files.extend(sorted((root / package).rglob("*.py")))
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            parts.append(f"{path.relative_to(root).as_posix()}:{digest}")
        version = hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
    except OSError:
        from repro._version import __version__

        version = f"pkg-{__version__}"
    _version_memo["version"] = version
    return version


def default_store_dir() -> Path:
    """``$REPRO_SERVICE_DIR`` or ``.repro-service`` under the CWD."""
    env = os.environ.get("REPRO_SERVICE_DIR")  # reprolint: clock-ok=cache/store location only, never feeds a result
    return Path(env) if env else Path.cwd() / _STORE_DIR_NAME


@dataclass
class StoreEntry:
    """One archived scenario: spec + result + usage accounting."""

    signature: str
    spec: dict[str, Any]
    result: dict[str, Any]
    created_at: float
    hits: int

    def to_doc(self) -> dict[str, Any]:
        """The on-disk JSON document of this entry."""
        return {
            "format": "repro.store/1",
            "store_version": store_version(),
            "signature": self.signature,
            "spec": self.spec,
            "result": self.result,
            "created_at": self.created_at,
            "hits": self.hits,
        }


class ResultStore:
    """The on-disk signature -> result archive.

    Not a server: plain files, safe to share through any filesystem.
    Concurrent writers of the *same* signature are idempotent (they
    write identical content, and ``os.replace`` is atomic); the hit
    counter is advisory and may under-count under races, never
    over-count.
    """

    def __init__(self, root: Path | None = None):
        base = Path(root) if root is not None else default_store_dir()
        self._base = base
        self.root = base / "store" / store_version()

    # -- paths ---------------------------------------------------------

    def _entry_path(self, signature: str) -> Path:
        return self.root / signature[:2] / f"{signature}.json"

    # -- read ----------------------------------------------------------

    def _load(self, signature: str) -> StoreEntry | None:
        path = self._entry_path(signature)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("signature") != signature:
            return None
        return StoreEntry(
            signature=signature,
            spec=doc.get("spec", {}),
            result=doc.get("result", {}),
            created_at=float(doc.get("created_at", 0.0)),
            hits=int(doc.get("hits", 0)),
        )

    def peek(self, signature: str) -> StoreEntry | None:
        """Read an entry without touching its hit counter."""
        return self._load(signature)

    def get(self, signature: str) -> StoreEntry | None:
        """Read an entry and record the hit (persisted best-effort)."""
        entry = self._load(signature)
        if entry is None:
            return None
        entry.hits += 1
        try:
            self._write(entry)
        except OSError:
            pass  # the result is still served; only the counter lags
        return entry

    # -- write ---------------------------------------------------------

    def _write(self, entry: StoreEntry) -> None:
        path = self._entry_path(entry.signature)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(dumps(entry.to_doc(), indent=2) + "\n")
        os.replace(tmp, path)

    def put(
        self,
        signature: str,
        spec: dict[str, Any],
        result: dict[str, Any],
    ) -> StoreEntry:
        """Archive a solved scenario (idempotent per signature)."""
        existing = self._load(signature)
        if existing is not None:
            return existing
        entry = StoreEntry(
            signature=signature,
            spec=spec,
            result=result,
            created_at=time.time(),
            hits=0,
        )
        self._write(entry)
        return entry

    # -- maintenance ---------------------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Every readable entry of the current code version."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            entry = self._load(path.stem)
            if entry is not None:
                yield entry

    def stats(self) -> dict[str, Any]:
        """Aggregate counters for the status/store JSON, including the
        sibling persistent solve tier (the daemon and every CLI process
        share both through the same ``.repro-service/`` root)."""
        n = 0
        hits = 0
        for entry in self.entries():
            n += 1
            hits += entry.hits
        from repro.core.diskcache import DiskSolveCache, get_disk_cache

        # the process-wide cache when it shares this store's base (live
        # counters), else a read view rooted beside this store
        disk = get_disk_cache()
        if disk.tier_root.parent != self._base:
            disk = DiskSolveCache(root=self._base)
        return {
            "root": str(self.root),
            "store_version": store_version(),
            "entries": n,
            "total_hits": hits,
            "solvecache": disk.usage(),
        }

    def wipe(self) -> int:
        """Delete every entry of the current code version; returns the
        number removed.  (Old-version subdirectories are dead weight —
        remove the whole ``.repro-service/`` directory to reclaim them.)
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
