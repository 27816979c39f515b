"""Persistent L2 solve cache: disk-backed DP tables and replan memos.

The in-memory caches of :mod:`repro.core.cache` (the DP-table LRU and
the replan memo) die with the process: every new CI run, daemon restart
or fresh sweep pays the full cold-solve cost again, and every parallel
runner worker builds its own private memo.  This module adds the tier
below them:

.. code-block:: text

    L1  repro.core.cache      in-memory LRU (process lifetime)
    L2  repro.core.diskcache  .repro-service/solvecache/<version>/ (this file)
        cold solve            dp_makespan / dp_next_failure

Entries are **content-addressed**: the key is the exact tuple the L1
caches already use — quantized state signature plus every distribution
and grid parameter — canonically encoded and SHA-256 hashed, so any two
processes that would solve the same DP share one file.  An entry is
one plain file, ``<digest>.solve``, read or written in one call:

.. code-block:: text

    b"RSC\x02"        magic
    uint32 (LE)       header length
    header            JSON: format, kind, digest and, per array, its
                      name, dtype (e.g. "<f8") and shape
    payload           every array's raw bytes, C order, header order

The arrays travel as their raw IEEE bytes, so a disk-warm solve is
*bit-identical* to a cold solve, which the tests and ``make
perfbench-check`` (a fresh process over a tier another process filled)
gate.  Only fixed-size numeric dtypes are written or read.

Durability discipline (the same R10 contract the result store obeys):

- writes go to a sibling temp file and ``os.replace`` into place, so a
  reader never observes a torn entry and two processes racing on the
  same key both succeed (last replace wins; the contents are identical
  by construction);
- any unreadable entry — a wrong magic, kind or digest, an unknown
  dtype, a payload shorter or longer than its header says — is treated
  as a miss and removed best-effort; corruption can cost time, never
  correctness;
- the store directory is salted with
  :func:`repro.service.store.store_version` (a source hash of every
  result-determining package), so a code change retires every stale
  entry automatically; old-version directories are pruned on the next
  write.

The tier is bounded by a byte budget (LRU by file *mtime*, which
``load()`` bumps explicitly on every hit so recency survives
``noatime``-mounted filesystems; default 256 MiB).  A store does not
walk the tier: each process keeps an index of it (``path -> (mtime,
size)``, the running byte total and an mtime min-heap), built by one
scan at its first store and rebuilt once it has stored ``max_bytes //
8`` bytes since the last scan, which is how it picks up other
processes' writes.  Eviction pops the heap while the total exceeds
``max_bytes`` and re-stats each candidate first, so an entry any
process has loaded since the scan goes back on the heap with its real
mtime, and one another process removed is dropped from the index.
Within one process that is exact mtime LRU down to ``max_bytes``; with
P concurrent writers the tier can exceed ``max_bytes`` by at most
(P-1) * ``max_bytes // 8`` between scans.

The tier is observable: per-process hit/miss/store/evict counters feed
``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``,
and advisory lifetime counters are persisted next to the entries for
``repro store`` — at the end of every work unit, by ``usage()`` and
``lifetime()``, and at interpreter exit for a process that stored.
``--no-disk-cache`` bypasses the tier entirely (the slow path is simply
the cold solve).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import heapq
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "DiskCacheStats",
    "DiskSolveCache",
    "get_disk_cache",
    "configure_disk_cache",
    "disk_cache_stats",
    "reset_disk_cache_stats",
    "wipe_disk_cache",
    "key_digest",
    "encode_entry",
    "decode_entry",
    "load_dp_makespan",
    "store_dp_makespan",
    "load_replan",
    "store_replan",
]

_SOLVE_TIER_NAME = "solvecache"

#: On-disk entry layout; bump to retire entries on an incompatible
#: payload change the source hash cannot see.
_ENTRY_FORMAT = 2

#: File name suffix of an entry, and the first bytes of its contents.
_ENTRY_SUFFIX = ".solve"
_MAGIC = b"RSC\x02"

#: Header length prefix: one little-endian uint32.
_LENGTH_BYTES = 4

#: Array dtype kinds an entry may hold: bool, signed and unsigned
#: integers, floats and complex numbers (fixed size, no objects).
_NUMERIC_KINDS = "biufc"

#: Default LRU byte budget for the whole tier (all kinds together).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_COUNTERS_NAME = "counters.json"
_COUNTER_FIELDS = ("hits", "misses", "stores", "evictions")

#: A process rescans the tier once it has stored ``max_bytes //
#: _RESCAN_DIVISOR`` bytes since its last scan; between scans it cannot
#: see other processes' writes, so this bounds their overshoot.
_RESCAN_DIVISOR = 8


# ----------------------------------------------------------------------
# canonical key encoding
# ----------------------------------------------------------------------


def _feed(h: "hashlib._Hash", part: Any) -> None:
    """Feed one key element into the digest with an unambiguous
    type-tag + length + payload framing."""
    if isinstance(part, bytes):
        tag, payload = b"b", part
    elif isinstance(part, bool):  # before int: bool is an int subclass
        tag, payload = b"o", b"1" if part else b"0"
    elif isinstance(part, int):
        tag, payload = b"i", str(part).encode("ascii")
    elif isinstance(part, float):
        tag, payload = b"f", float(part).hex().encode("ascii")
    elif isinstance(part, str):
        tag, payload = b"s", part.encode("utf-8")
    elif isinstance(part, tuple):
        h.update(b"t")
        h.update(len(part).to_bytes(8, "little"))
        for item in part:
            _feed(h, item)
        return
    else:
        raise TypeError(
            f"unsupported solve-cache key element {type(part).__name__!r}"
        )
    h.update(tag)
    h.update(len(payload).to_bytes(8, "little"))
    h.update(payload)


def key_digest(kind: str, key: tuple) -> str:
    """SHA-256 hex digest of a solve key (the content address).

    The encoding is canonical — every element framed with a type tag
    and byte length — so two keys collide only if they are equal, and
    floats enter via ``float.hex()`` (exact, locale-independent).
    """
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    h.update(b"\x00")
    _feed(h, key)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskCacheStats:
    """Per-process counters of the disk solve cache."""

    hits: int
    misses: int
    stores: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _entry_files(root: Path):
    """Every entry file under ``root``, skipping the ``.tmp-*`` files of
    writes still in flight."""
    for path in root.rglob(f"*{_ENTRY_SUFFIX}"):
        if not path.name.startswith(".tmp-"):
            yield path


def _numeric_dtype(name: str) -> np.dtype:
    """The fixed-size numeric dtype ``name`` denotes; ValueError for any
    other (objects, strings, records, void)."""
    dtype = np.dtype(name)
    if dtype.kind not in _NUMERIC_KINDS or dtype.itemsize == 0:
        raise ValueError(f"not a fixed-size numeric dtype: {name!r}")
    return dtype


def encode_entry(kind: str, digest: str, arrays: dict[str, np.ndarray]) -> bytes:
    """One entry's bytes: magic, length-prefixed JSON header, then every
    array's raw bytes.  ValueError for an array that is not fixed-size
    numeric."""
    specs = []
    payload = []
    for name, value in arrays.items():
        array = np.asarray(value)
        specs.append([name, _numeric_dtype(array.dtype.str).str, list(array.shape)])
        payload.append(array.tobytes(order="C"))
    header = json.dumps(
        {"format": _ENTRY_FORMAT, "kind": kind, "digest": digest, "arrays": specs}
    ).encode()
    return b"".join(
        [_MAGIC, len(header).to_bytes(_LENGTH_BYTES, "little"), header, *payload]
    )


def decode_entry(raw: bytes, kind: str, digest: str) -> dict[str, np.ndarray]:
    """The arrays of an entry encoded by :func:`encode_entry` for
    ``(kind, digest)``.  ValueError (or another exception of the JSON
    and NumPy parsers) for anything else: a wrong magic, format, kind or
    digest, a dtype that is not fixed-size numeric, a negative shape, or
    a payload shorter or longer than the header declares."""
    start = len(_MAGIC) + _LENGTH_BYTES
    if len(raw) < start or raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a solve-cache entry")
    end = start + int.from_bytes(raw[len(_MAGIC) : start], "little")
    if end > len(raw):
        raise ValueError("truncated header")
    header = json.loads(raw[start:end])
    if (
        header["format"] != _ENTRY_FORMAT
        or header["kind"] != kind
        or header["digest"] != digest
    ):
        raise ValueError("entry of another format or key")
    buffer = bytearray(raw[end:])  # writable arrays, like a cold solve's
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype_name, dims in header["arrays"]:
        dtype = _numeric_dtype(dtype_name)
        shape = tuple(int(n) for n in dims)
        if any(n < 0 for n in shape):
            raise ValueError(f"negative shape {shape}")
        count = int(np.prod(shape, dtype=np.int64))
        size = count * dtype.itemsize
        if offset + size > len(buffer):
            raise ValueError("truncated payload")
        arrays[name] = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset += size
    if offset != len(buffer):
        raise ValueError("payload longer than its header")
    return arrays


class _TierIndex:
    """One process's view of a tier root: ``path -> (mtime_ns, size)``,
    the running byte total and an mtime min-heap (which may hold
    superseded records; a record counts only while it matches the
    index).  Not thread-safe: its owner serialises every call."""

    def __init__(self, root: Path):
        self.root = root
        self.entries: dict[str, tuple[int, int]] = {}
        self.heap: list[tuple[int, str]] = []
        self.total = 0
        self.since_scan = 0
        self.scan()

    def scan(self) -> None:
        """Rebuild the index from one walk of the tier."""
        entries: dict[str, tuple[int, int]] = {}
        with contextlib.suppress(OSError):
            for path in _entry_files(self.root):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries[str(path)] = (stat.st_mtime_ns, stat.st_size)
        self.entries = entries
        self.heap = [(mtime, path) for path, (mtime, _) in entries.items()]
        heapq.heapify(self.heap)
        self.total = sum(size for _, size in entries.values())
        self.since_scan = 0

    def add(self, path: str, stat: os.stat_result, rescan_bytes: int) -> None:
        """Account a stored entry, or rescan once ``rescan_bytes`` have
        been stored since the last scan (the scan sees the entry)."""
        self.since_scan += stat.st_size
        if self.since_scan >= rescan_bytes:
            self.scan()
        else:
            self._put(path, stat.st_mtime_ns, stat.st_size)

    def evict(self, max_bytes: int) -> int:
        """Unlink least-recently-used entries until the indexed total
        is within ``max_bytes``; returns the number unlinked.

        Recency is ``st_mtime``, which ``load()`` bumps explicitly;
        ``st_atime`` is frozen on ``noatime``/``relatime`` mounts.  Each
        candidate is re-stat-ed first: one whose mtime moved (a
        ``load()`` in any process bumped it) goes back on the heap with
        its real mtime, and one that vanished is forgotten uncounted.
        """
        evicted = 0
        while self.total > max_bytes and self.heap:
            mtime, path = heapq.heappop(self.heap)
            known = self.entries.get(path)
            if known is None or known[0] != mtime:
                continue  # superseded record
            try:
                stat = os.stat(path)
            except OSError:
                self._drop(path)
                continue
            if stat.st_mtime_ns != mtime:
                self._put(path, stat.st_mtime_ns, stat.st_size)
                continue
            try:
                os.unlink(path)
                evicted += 1
            except OSError:
                pass  # removed meanwhile, or not removable: forget it
            self._drop(path)
        return evicted

    def _put(self, path: str, mtime: int, size: int) -> None:
        self._drop(path)
        self.entries[path] = (mtime, size)
        self.total += size
        heapq.heappush(self.heap, (mtime, path))

    def _drop(self, path: str) -> None:
        known = self.entries.pop(path, None)
        if known is not None:
            self.total -= known[1]


class DiskSolveCache:
    """Disk-backed, content-addressed solve store (the L2 tier).

    Mirrors :class:`repro.service.store.ResultStore`: plain files under
    ``<base>/solvecache/<store_version()>/<kind>/<digest[:2]>/``, safe
    to share through any filesystem.  Thread-safe within a process;
    cross-process writers of the same key are idempotent (atomic
    replace of identical content).  ``enabled=False`` turns every
    operation into a no-op so the cold path is always reachable.

    ``_lock`` guards the counters; ``_index_lock`` guards the tier index
    and is held across eviction's file operations, so a hit never waits
    on an eviction.  ``max_bytes`` is read without either lock.
    """

    def __init__(
        self,
        root: Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        enabled: bool = True,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._base = Path(root) if root is not None else None
        self.max_bytes = int(max_bytes)
        self.enabled = enabled
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._flushed = dict.fromkeys(_COUNTER_FIELDS, 0)
        self._pruned = False
        self._flush_at_exit = False
        self._index_lock = threading.Lock()
        self._index: _TierIndex | None = None

    # -- paths ---------------------------------------------------------

    @property
    def tier_root(self) -> Path:
        """``<base>/solvecache`` (all versions)."""
        from repro.service.store import default_store_dir

        base = self._base if self._base is not None else default_store_dir()
        return base / _SOLVE_TIER_NAME

    @property
    def root(self) -> Path:
        """The current code version's entry directory."""
        from repro.service.store import store_version

        return self.tier_root / store_version()

    def _entry_path(self, kind: str, digest: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}{_ENTRY_SUFFIX}"

    # -- read ----------------------------------------------------------

    def load(self, kind: str, key: tuple) -> dict[str, np.ndarray] | None:
        """The stored arrays for ``(kind, key)``, or None on a miss.

        Counts a hit or a miss; any read failure — missing file,
        truncation, garbage, key mismatch (see :func:`decode_entry`) —
        is a miss, with the corrupt file removed best-effort so it is
        rebuilt on the next store.
        """
        if not self.enabled:
            return None
        digest = key_digest(kind, key)
        path = self._entry_path(kind, digest)
        arrays: dict[str, np.ndarray] | None = None
        try:
            arrays = decode_entry(path.read_bytes(), kind, digest)
        except FileNotFoundError:
            arrays = None
        except Exception:
            # torn/garbage entry: drop it so a future solve rebuilds it
            with contextlib.suppress(OSError):
                path.unlink()
            arrays = None
        if arrays is None:
            with self._lock:
                self.misses += 1
            return None
        # explicit recency bump: os.utime with no times sets BOTH atime
        # and mtime to now, and eviction orders by mtime — atime is
        # unreliable under noatime/relatime mounts (common on servers),
        # where a read alone would never refresh recency
        with contextlib.suppress(OSError):
            os.utime(path)
        with self._lock:
            self.hits += 1
        return arrays

    # -- write ---------------------------------------------------------

    def store(
        self, kind: str, key: tuple, arrays: dict[str, np.ndarray]
    ) -> bool:
        """Persist ``arrays`` under ``(kind, key)`` atomically.

        Failures (read-only filesystem, quota) are swallowed: the tier
        is a cache, never a correctness dependency.  Returns whether
        the entry landed on disk.
        """
        if not self.enabled:
            return False
        digest = key_digest(kind, key)
        path = self._entry_path(kind, digest)
        tmp = path.parent / f".tmp-{os.getpid()}-{digest}{_ENTRY_SUFFIX}"
        try:
            raw = encode_entry(kind, digest, arrays)
            self._prune_stale_versions()
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(raw)
            # stat before the rename, which keeps inode, size and mtime:
            # after it, another thread's eviction may already have
            # removed the entry that landed
            stat = tmp.stat()
            os.replace(tmp, path)
        except (OSError, ValueError):
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        evicted = self._account(path, stat)
        with self._lock:
            self.stores += 1
            self.evictions += evicted
            register = not self._flush_at_exit
            self._flush_at_exit = True
        if register:
            atexit.register(self._flush_if_present)
        return True

    def _account(self, path: Path, stat: os.stat_result) -> int:
        """Add a stored entry to the tier index (built on first use or
        for a new root, rebuilt after ``max_bytes // _RESCAN_DIVISOR``
        stored bytes), then evict down to ``max_bytes``.  Returns the
        number of entries evicted."""
        max_bytes = self.max_bytes
        rescan_bytes = max(1, max_bytes // _RESCAN_DIVISOR)
        root = path.parents[2]
        with self._index_lock:
            index = self._index
            if index is None or index.root != root:
                self._index = index = _TierIndex(root)
            else:
                index.add(str(path), stat, rescan_bytes)
            return index.evict(max_bytes)

    def _drop_index(self) -> None:
        """Forget the tier index; the next store rescans."""
        with self._index_lock:
            self._index = None

    def _prune_stale_versions(self) -> None:
        """Remove entry directories of retired code versions (once per
        process): the version salt already makes them unreachable, so
        they are pure dead weight against the byte budget."""
        with self._lock:
            if self._pruned:
                return
            self._pruned = True
        current = self.root.name
        try:
            siblings = list(self.tier_root.iterdir())
        except OSError:
            return
        for path in siblings:
            if path.is_dir() and path.name != current:
                shutil.rmtree(path, ignore_errors=True)

    # -- observability -------------------------------------------------

    def stats(self) -> DiskCacheStats:
        """Snapshot of this process's counters."""
        with self._lock:
            return DiskCacheStats(
                self.hits, self.misses, self.stores, self.evictions
            )

    def reset_stats(self) -> None:
        """Zero the per-process counters (benchmark arm boundaries)."""
        with self._lock:
            self.hits = self.misses = self.stores = self.evictions = 0
            self._flushed = dict.fromkeys(_COUNTER_FIELDS, 0)

    def flush_counters(self) -> None:
        """Fold this process's counter deltas into the advisory
        lifetime counters persisted next to the entries.  Work units
        call this at exit, ``usage()``/``lifetime()`` before reading,
        and a process that stored calls it at interpreter exit.  No-op
        when there is nothing new to fold in.

        Best-effort read-modify-replace: concurrent processes may lose
        each other's increments (under-count, never over-count), the
        same contract as the result store's hit counter.
        """
        with self._lock:
            current = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }
            delta = {
                name: current[name] - self._flushed[name] for name in current
            }
            if not any(delta.values()):
                return
            self._flushed = current
        path = self.root / _COUNTERS_NAME
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
        for name, inc in delta.items():
            doc[name] = int(doc.get(name, 0)) + inc
        tmp = path.with_name(f".tmp-{os.getpid()}-{_COUNTERS_NAME}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc) + "\n")
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def _flush_if_present(self) -> None:
        """Exit-time flush that never recreates a tier that was wiped or
        removed (a test or benchmark directory, say) just for counters."""
        if self.root.is_dir():
            self.flush_counters()

    def lifetime(self) -> dict[str, float]:
        """The persisted lifetime counters (this process's deltas flushed
        first) and their hit rate; reads only the counter file."""
        self.flush_counters()
        try:
            doc = json.loads((self.root / _COUNTERS_NAME).read_text())
        except (OSError, ValueError):
            doc = {}
        counters = {name: int(doc.get(name, 0)) for name in _COUNTER_FIELDS}
        lookups = counters["hits"] + counters["misses"]
        return {
            **counters,
            "hit_rate": counters["hits"] / lookups if lookups else 0.0,
        }

    def usage(self) -> dict[str, Any]:
        """On-disk shape of the tier: entries and bytes, per kind and
        total, plus the persisted lifetime counters."""
        from repro.service.store import store_version

        kinds: dict[str, dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in _entry_files(self.root):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                kind = path.parent.parent.name
                bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
                bucket["entries"] += 1
                bucket["bytes"] += size
                total_entries += 1
                total_bytes += size
        return {
            "root": str(self.root),
            "store_version": store_version(),
            "enabled": self.enabled,
            "entries": total_entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "kinds": kinds,
            "lifetime": self.lifetime(),
        }

    # -- maintenance ---------------------------------------------------

    def wipe(self) -> int:
        """Delete every entry (all versions); returns entries removed."""
        self._drop_index()
        removed = 0
        root = self.tier_root
        if not root.is_dir():
            return 0
        for path in _entry_files(root):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        for path in sorted(root.iterdir(), reverse=True):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
        return removed


_DISK = DiskSolveCache()


def get_disk_cache() -> DiskSolveCache:
    """The process-wide disk solve cache."""
    return _DISK


def configure_disk_cache(
    enabled: bool | None = None,
    root: Path | str | None = None,
    max_bytes: int | None = None,
) -> None:
    """Adjust the global disk tier.  ``enabled=False`` is the one
    execution switch left (CLI ``--no-disk-cache``, e.g. on a read-only
    filesystem), set once per process; disabling never touches stored
    entries and re-enabling resumes hitting them."""
    if enabled is not None:
        _DISK.enabled = bool(enabled)
    if root is not None:
        _DISK._base = Path(root)
        _DISK._pruned = False
        _DISK._drop_index()
    if max_bytes is not None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        _DISK.max_bytes = int(max_bytes)


def disk_cache_stats() -> DiskCacheStats:
    """Counters of the global disk tier (aggregated per work unit into
    ``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``)."""
    return _DISK.stats()


def reset_disk_cache_stats() -> None:
    """Zero the global per-process counters."""
    _DISK.reset_stats()


def wipe_disk_cache() -> int:
    """Delete every persisted solve (``repro store --wipe-solves``)."""
    return _DISK.wipe()


# ----------------------------------------------------------------------
# kind-specific codecs
# ----------------------------------------------------------------------
#
# Payloads are {name: ndarray} documents; scalars travel as 0-d float64
# arrays so the round trip is bit-exact by their raw bytes, not by
# decimal text.


def load_dp_makespan(key: tuple):
    """Rebuild a persisted :class:`DPMakespanResult`, or None."""
    arrays = _DISK.load("dp_makespan", key)
    if arrays is None:
        return None
    from repro.core.dp_makespan import DPMakespanResult

    try:
        return DPMakespanResult(
            expected_makespan=float(arrays["expected_makespan"]),
            first_chunk=float(arrays["first_chunk"]),
            u=float(arrays["u"]),
            tau0=float(arrays["tau0"]),
            recovery=float(arrays["recovery"]),
            _v_pre=arrays["v_pre"],
            _c_pre=arrays["c_pre"],
            _v_post=arrays["v_post"],
            _c_post=arrays["c_post"],
        )
    except KeyError:
        return None


def store_dp_makespan(key: tuple, result) -> bool:
    """Persist a :class:`DPMakespanResult` table set."""
    return _DISK.store(
        "dp_makespan",
        key,
        {
            "expected_makespan": np.float64(result.expected_makespan),
            "first_chunk": np.float64(result.first_chunk),
            "u": np.float64(result.u),
            "tau0": np.float64(result.tau0),
            "recovery": np.float64(result.recovery),
            "v_pre": result._v_pre,
            "c_pre": result._c_pre,
            "v_post": result._v_post,
            "c_post": result._c_post,
        },
    )


def load_replan(key: tuple):
    """Rebuild a persisted :class:`DPNextFailureResult`, or None."""
    arrays = _DISK.load("replan", key)
    if arrays is None:
        return None
    from repro.core.dp_nextfailure import DPNextFailureResult

    try:
        return DPNextFailureResult(
            chunks=arrays["chunks"],
            expected_work=float(arrays["expected_work"]),
            u=float(arrays["u"]),
        )
    except KeyError:
        return None


def store_replan(key: tuple, result) -> bool:
    """Persist a :class:`DPNextFailureResult` replan."""
    arrays = {
        "chunks": np.asarray(result.chunks, dtype=float),
        "expected_work": np.float64(result.expected_work),
        "u": np.float64(result.u),
    }
    return _DISK.store("replan", key, arrays)
