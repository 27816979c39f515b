"""Persistent disk solve cache: bit-identity, corruption fallback,
concurrency, version rollover, eviction and the disabled slow path."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import diskcache
from repro.core.cache import cached_dp_makespan, cached_replan, clear_cache
from repro.core.diskcache import (
    DiskSolveCache,
    configure_disk_cache,
    decode_entry,
    encode_entry,
    get_disk_cache,
    key_digest,
    load_dp_makespan,
)
from repro.distributions import Exponential, Weibull
from repro.units import DAY, HOUR


@pytest.fixture
def cache(tmp_path):
    return DiskSolveCache(root=tmp_path)


def _arrays(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "table": rng.standard_normal((7, 5)),
        "scalar": np.float64(rng.standard_normal()),
    }


KEY = ("kind-test", 1.5, 3, True, ("nested", 2.0))


class TestRoundTrip:
    def test_store_then_load_bit_identical(self, cache):
        arrays = _arrays()
        assert cache.store("dp", KEY, arrays)
        loaded = cache.load("dp", KEY)
        assert loaded is not None
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.asarray(arrays[name]).dtype

    def test_miss_on_absent_key(self, cache):
        assert cache.load("dp", KEY) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_kinds_do_not_collide(self, cache):
        cache.store("a", KEY, _arrays(1))
        assert cache.load("b", KEY) is None

    def test_counters(self, cache):
        cache.store("dp", KEY, _arrays())
        cache.load("dp", KEY)
        cache.load("dp", ("other",))
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_disabled_is_a_noop(self, cache):
        cache.enabled = False
        assert not cache.store("dp", KEY, _arrays())
        assert cache.load("dp", KEY) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)


class TestKeyDigest:
    def test_distinct_types_distinct_digests(self):
        # bool is an int subclass; 1.0 == 1 — the canonical encoding
        # must still tell them apart
        assert key_digest("k", (1,)) != key_digest("k", (True,))
        assert key_digest("k", (1,)) != key_digest("k", (1.0,))
        assert key_digest("k", ("1",)) != key_digest("k", (1,))

    def test_nesting_is_not_flattened(self):
        assert key_digest("k", (("a", "b"),)) != key_digest("k", ("a", "b"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            key_digest("k", (object(),))


class TestCorruption:
    def test_truncated_entry_is_a_silent_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        path.write_bytes(path.read_bytes()[:20])
        assert cache.load("dp", KEY) is None
        # the corrupt file was removed so a future solve rebuilds it
        assert not path.exists()

    def test_garbage_entry_is_a_silent_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        path.write_bytes(b"this is not a solve-cache entry")
        assert cache.load("dp", KEY) is None
        assert not path.exists()

    def test_wrong_digest_is_a_miss(self, cache):
        """An entry copied onto the wrong address must not be served."""
        cache.store("dp", KEY, _arrays())
        src = cache._entry_path("dp", key_digest("dp", KEY))
        other = ("unrelated", 9)
        dst = cache._entry_path("dp", key_digest("dp", other))
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        assert cache.load("dp", other) is None


def _header_entry(header_edit, payload: bytes = b"") -> tuple[bytes, str]:
    """A hand-built ``dp`` entry for KEY whose header ``header_edit``
    modified, and its digest."""
    digest = key_digest("dp", KEY)
    header = {
        "format": diskcache._ENTRY_FORMAT,
        "kind": "dp",
        "digest": digest,
        "arrays": [["x", "<f8", [1]]],
    }
    header_edit(header)
    raw = json.dumps(header).encode()
    return (
        diskcache._MAGIC + len(raw).to_bytes(4, "little") + raw + payload,
        digest,
    )


class TestRawCodec:
    """The raw entry layout: magic, length-prefixed JSON header, array
    bytes; anything else is a miss and its file is removed."""

    def test_truncated_at_every_length_is_a_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            assert cache.load("dp", KEY) is None, length
            assert not path.exists(), length
        path.write_bytes(raw)
        assert cache.load("dp", KEY) is not None

    def test_trailing_bytes_are_a_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        path.write_bytes(path.read_bytes() + b"\x00")
        assert cache.load("dp", KEY) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["arrays"][0].__setitem__(1, "|O"),
            lambda h: h["arrays"][0].__setitem__(1, "<U4"),
            lambda h: h["arrays"][0].__setitem__(1, "no-such-dtype"),
            lambda h: h["arrays"][0].__setitem__(2, [-1]),
            lambda h: h.__setitem__("kind", "replan"),
            lambda h: h.__setitem__("digest", "0" * 64),
            lambda h: h.__setitem__("format", 1),
        ],
        ids=["object", "unicode", "unknown", "negative-shape", "kind",
             "digest", "format"],
    )
    def test_bad_header_is_a_miss(self, cache, edit):
        raw, digest = _header_entry(edit, payload=b"\x00" * 8)
        path = cache._entry_path("dp", digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
        assert cache.load("dp", KEY) is None
        assert not path.exists()

    def test_hand_built_entry_decodes(self, cache):
        """The fixture of the header tests is a valid entry unedited."""
        raw, digest = _header_entry(lambda h: None, np.float64(2.5).tobytes())
        path = cache._entry_path("dp", digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
        loaded = cache.load("dp", KEY)
        assert loaded is not None and loaded["x"].tolist() == [2.5]

    def test_wrong_magic_is_a_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        raw = path.read_bytes()
        path.write_bytes(b"XXXX" + raw[4:])
        assert cache.load("dp", KEY) is None
        assert not path.exists()

    def test_dtypes_and_shapes_round_trip(self):
        arrays = {
            "zero_d": np.float64(-0.0),
            "ints": np.arange(-3, 4, dtype=np.int64),
            "matrix": np.arange(12, dtype=float).reshape(3, 4) / 7.0,
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "empty": np.zeros((0, 5)),
        }
        digest = key_digest("dp", KEY)
        loaded = decode_entry(encode_entry("dp", digest, arrays), "dp", digest)
        assert list(loaded) == list(arrays)
        for name, value in arrays.items():
            value = np.asarray(value)
            assert loaded[name].dtype == value.dtype, name
            assert loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.tobytes(), name
        assert np.signbit(loaded["zero_d"])
        assert loaded["matrix"].flags.writeable

    def test_non_numeric_array_is_not_stored(self, cache):
        assert not cache.store("dp", KEY, {"x": np.array([object()])})
        assert cache.load("dp", KEY) is None

    def test_dp_makespan_entry_round_trips_bit_exactly(self):
        from repro.core.dp_makespan import dp_makespan
        from repro.core.diskcache import store_dp_makespan

        result = dp_makespan(
            work=2 * HOUR, checkpoint=600.0, downtime=60.0, recovery=600.0,
            dist=Weibull.from_mtbf(DAY, 0.7), u=120.0,
        )
        key = ("dp_makespan-codec",)
        assert store_dp_makespan(key, result)
        warm = load_dp_makespan(key)
        for name in ("expected_makespan", "first_chunk", "u", "tau0",
                     "recovery"):
            assert np.float64(getattr(warm, name)).tobytes() == np.float64(
                getattr(result, name)
            ).tobytes(), name
        for name in ("_v_pre", "_c_pre", "_v_post", "_c_post"):
            cold, hot = getattr(result, name), getattr(warm, name)
            assert hot.dtype == cold.dtype and hot.shape == cold.shape, name
            assert hot.tobytes() == cold.tobytes(), name


def _concurrent_writer(args):
    root, seed = args
    cache = DiskSolveCache(root=root)
    return cache.store("dp", KEY, _arrays())  # same key, same content


class TestConcurrency:
    def test_concurrent_same_key_writes_both_succeed(self, tmp_path):
        with multiprocessing.Pool(2) as pool:
            results = pool.map(
                _concurrent_writer, [(tmp_path, 0), (tmp_path, 0)]
            )
        assert results == [True, True]
        cache = DiskSolveCache(root=tmp_path)
        loaded = cache.load("dp", KEY)
        assert loaded is not None
        assert np.array_equal(loaded["table"], _arrays()["table"])

    def test_no_temp_litter_after_store(self, cache):
        cache.store("dp", KEY, _arrays())
        litter = [
            p for p in cache.root.rglob(".tmp-*") if p.is_file()
        ]
        assert litter == []


class TestVersionRollover:
    def test_stale_version_dirs_are_pruned_on_store(self, tmp_path):
        stale = tmp_path / "solvecache" / "deadbeefdeadbeef"
        stale.mkdir(parents=True)
        (stale / "old.solve").write_bytes(b"stale")
        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", KEY, _arrays())
        assert not stale.exists()
        assert cache.load("dp", KEY) is not None

    def test_wipe_removes_all_versions(self, tmp_path):
        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", KEY, _arrays())
        # a stale version appearing after the store's one-shot prune
        stale = tmp_path / "solvecache" / "deadbeefdeadbeef"
        stale.mkdir(parents=True)
        (stale / "old.solve").write_bytes(b"stale")
        assert cache.wipe() == 2  # the stale entry + the live one
        assert cache.load("dp", KEY) is None
        assert not stale.exists()


class TestEviction:
    def test_lru_eviction_under_byte_budget(self, tmp_path):
        cache = DiskSolveCache(root=tmp_path, max_bytes=1)
        cache.store("dp", ("a",), _arrays(1))
        cache.store("dp", ("b",), _arrays(2))
        # a 1-byte budget can hold nothing: every store evicts
        assert cache.stats().evictions >= 1

    def test_load_bumps_mtime_explicitly(self, cache):
        """A hit must refresh the entry's mtime — recency survives
        ``noatime``-mounted filesystems where atime never moves."""
        import os

        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        ancient = 1_000_000.0
        os.utime(path, (ancient, ancient))
        assert cache.load("dp", KEY) is not None
        assert path.stat().st_mtime > ancient

    def test_eviction_orders_by_mtime_not_atime(self, tmp_path):
        """Regression: eviction recency is st_mtime.  st_atime lies on
        noatime/relatime mounts, so an entry whose atime looks fresh
        but whose mtime is oldest must still be the one evicted."""
        import os
        import time

        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", ("a",), _arrays(1))
        cache.store("dp", ("b",), _arrays(2))
        path_a = cache._entry_path("dp", key_digest("dp", ("a",)))
        path_b = cache._entry_path("dp", key_digest("dp", ("b",)))
        now = time.time()
        # a: oldest mtime but freshest atime (what a misleading atime
        # source would report); b: newer mtime, ancient atime
        os.utime(path_a, (now + 1000.0, 1_000_000.0))
        os.utime(path_b, (1.0, 2_000_000.0))
        # budget fits exactly two entries: storing c must evict one
        cache.max_bytes = path_a.stat().st_size + path_b.stat().st_size
        cache.store("dp", ("c",), _arrays(3))
        assert not path_a.exists()  # oldest mtime went first
        assert cache.load("dp", ("b",)) is not None
        assert cache.load("dp", ("c",)) is not None

    def test_usage_reports_entries_and_bytes(self, cache):
        cache.store("dp", ("a",), _arrays(1))
        cache.store("replan", ("b",), _arrays(2))
        usage = cache.usage()
        assert usage["entries"] == 2
        assert usage["bytes"] > 0
        assert usage["kinds"]["dp"]["entries"] == 1
        assert usage["kinds"]["replan"]["entries"] == 1
        assert usage["lifetime"]["stores"] == 2

    def test_usage_skips_writes_in_flight(self, cache):
        cache.store("dp", ("a",), _arrays(1))
        path = cache._entry_path("dp", key_digest("dp", ("a",)))
        (path.parent / f".tmp-1-{path.name}").write_bytes(b"half written")
        assert cache.usage()["entries"] == 1
        assert cache.usage()["bytes"] == path.stat().st_size

    def test_lifetime_counters_persist_across_instances(self, tmp_path):
        a = DiskSolveCache(root=tmp_path)
        a.store("dp", KEY, _arrays())
        a.load("dp", KEY)
        a.usage()  # flush
        b = DiskSolveCache(root=tmp_path)
        lifetime = b.usage()["lifetime"]
        assert lifetime["stores"] == 1
        assert lifetime["hits"] == 1


def _tier_entries(cache) -> dict:
    """Brute-force walk: ``path -> (mtime_ns, size)`` of every entry."""
    out = {}
    for path in cache.root.rglob("*.solve"):
        stat = path.stat()
        out[path] = (stat.st_mtime_ns, stat.st_size)
    return out


def _entry_size(tmp_path) -> int:
    """Size of one ``_arrays`` entry (all of them are the same size)."""
    probe = DiskSolveCache(root=tmp_path / "probe")
    probe.store("dp", ("probe",), _arrays())
    return probe._entry_path("dp", key_digest("dp", ("probe",))).stat().st_size


@pytest.fixture
def count_scans(monkeypatch):
    """Record every full walk of the tier made by the store index."""
    calls = []
    scan = diskcache._TierIndex.scan

    def counting(index):
        calls.append(index.root)
        return scan(index)

    monkeypatch.setattr(diskcache._TierIndex, "scan", counting)
    return calls


class TestTierIndex:
    """The in-process index that replaced the per-store tier walk."""

    def test_budget_holds_after_every_store(self, tmp_path):
        size = _entry_size(tmp_path)
        fit = 40
        cache = DiskSolveCache(root=tmp_path / "tier", max_bytes=fit * size)
        stored = {}  # path -> mtime_ns right after its store
        for i in range(300):
            key = ("entry", i)
            assert cache.store("dp", key, _arrays(i))
            path = cache._entry_path("dp", key_digest("dp", key))
            stored[path] = path.stat().st_mtime_ns
            entries = _tier_entries(cache)
            assert sum(sz for _, sz in entries.values()) <= cache.max_bytes
            assert len(entries) == min(i + 1, fit)
            evicted = [m for p, m in stored.items() if p not in entries]
            if evicted:
                assert min(m for m, _ in entries.values()) >= max(evicted)
        assert cache.stats().evictions == 300 - fit

    def test_rescans_bounded_by_stored_bytes(self, tmp_path, count_scans):
        size = _entry_size(tmp_path)
        count_scans.clear()
        cache = DiskSolveCache(root=tmp_path / "tier", max_bytes=1000 * size)
        stored = 0
        for i in range(200):
            assert cache.store("dp", ("entry", i), _arrays(i))
            stored += size
        assert 1 < len(count_scans) <= 1 + stored // (cache.max_bytes // 8)
        assert cache.stats().evictions == 0

    def test_load_by_another_instance_keeps_entry(self, tmp_path):
        size = _entry_size(tmp_path)
        root = tmp_path / "tier"
        writer = DiskSolveCache(root=root)
        old = [("old", i) for i in range(15)]
        for i, key in enumerate(old):
            writer.store("dp", key, _arrays(i))
            path = writer._entry_path("dp", key_digest("dp", key))
            os.utime(path, ns=(10**18 + i, 10**18 + i))
        # a's first store scans the 15 old entries: 16 fill its budget
        a = DiskSolveCache(root=root, max_bytes=16 * size)
        a.store("dp", ("new", 0), _arrays(100))
        assert a.stats().evictions == 0
        b = DiskSolveCache(root=root)
        assert b.load("dp", old[0]) is not None  # bumps its mtime
        a.store("dp", ("new", 1), _arrays(101))
        assert a.stats().evictions == 1
        assert a._entry_path("dp", key_digest("dp", old[0])).exists()
        assert not a._entry_path("dp", key_digest("dp", old[1])).exists()

    def test_two_writers_stay_within_slack(self, tmp_path):
        size = _entry_size(tmp_path)
        root = tmp_path / "tier"
        a = DiskSolveCache(root=root, max_bytes=16 * size)
        b = DiskSolveCache(root=root, max_bytes=16 * size)
        bound = a.max_bytes + a.max_bytes // 8
        rng = np.random.default_rng(7)
        for i in range(240):
            writer = a if rng.random() < 0.5 else b
            writer.store("dp", ("entry", i), _arrays(i))
            total = sum(sz for _, sz in _tier_entries(a).values())
            assert total <= bound

    def test_threads_share_one_index(self, tmp_path):
        """Threads storing at once into one cache (more threads than
        cores, short switch interval): no store lost, tier in budget."""
        import threading

        size = _entry_size(tmp_path)
        cache = DiskSolveCache(root=tmp_path / "tier", max_bytes=12 * size)
        n_threads, per_thread = 8, 40

        def work(t):
            for i in range(per_thread):
                assert cache.store("dp", (t, i), _arrays(t * 100 + i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats.stores == n_threads * per_thread
        entries = _tier_entries(cache)
        assert sum(sz for _, sz in entries.values()) <= cache.max_bytes
        assert stats.evictions == n_threads * per_thread - len(entries)
        # the index agrees with the disk and with its own running total
        index = cache._index
        assert set(map(str, entries)) <= set(index.entries)
        assert index.total == sum(sz for _, sz in index.entries.values())

    def test_counters_flushed_at_exit(self, tmp_path):
        """A process that only stores, outside any work unit, still
        leaves its lifetime counters behind."""
        import repro

        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.diskcache import DiskSolveCache\n"
            "cache = DiskSolveCache(root=sys.argv[1])\n"
            "for i in range(5):\n"
            "    cache.store('dp', ('exit', i), {'x': np.arange(3.0)})\n"
        )
        env = dict(os.environ)
        src = str(os.path.dirname(os.path.dirname(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            check=True, env=env, timeout=120,
        )
        counters = DiskSolveCache(root=tmp_path).root / "counters.json"
        assert json.loads(counters.read_text())["stores"] == 5

    def test_index_resets_on_wipe(self, cache, count_scans):
        cache.store("dp", ("a",), _arrays(1))
        assert cache._index is not None
        cache.wipe()
        assert cache._index is None
        cache.store("dp", ("b",), _arrays(2))
        assert len(count_scans) == 2

    def test_index_resets_on_configure_root(self, tmp_path, monkeypatch):
        disk = get_disk_cache()
        monkeypatch.setattr(disk, "_base", disk._base)
        disk.store("dp", ("a",), _arrays(1))
        assert disk._index is not None
        configure_disk_cache(root=tmp_path / "elsewhere")
        assert disk._index is None
        disk.store("dp", ("b",), _arrays(2))
        assert disk._index.root == disk.root
        assert disk._index.root.is_relative_to(tmp_path / "elsewhere")

    def test_index_follows_store_version(self, cache, monkeypatch):
        from repro.service import store

        cache.store("dp", ("a",), _arrays(1))
        before = cache._index.root
        monkeypatch.setitem(store._version_memo, "version", "0" * 16)
        cache.store("dp", ("b",), _arrays(2))
        assert cache._index.root != before
        assert set(cache._index.entries) == set(map(str, _tier_entries(cache)))

    def test_lifetime_reads_counters_only(self, cache):
        cache.store("dp", KEY, _arrays())
        cache.load("dp", KEY)
        cache.load("dp", ("absent",))
        lifetime = cache.lifetime()
        assert (lifetime["hits"], lifetime["misses"], lifetime["stores"]) == (
            1, 1, 1,
        )
        assert lifetime["hit_rate"] == pytest.approx(0.5)
        assert cache.usage()["lifetime"] == lifetime


class TestSolverCodecs:
    """The dp_makespan / replan payloads round-trip bit-exactly."""

    def test_dp_makespan_disk_warm_bit_identical(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        kwargs = dict(
            work=2 * HOUR, checkpoint=600.0, downtime=60.0,
            recovery=600.0, dist=dist, u=120.0,
        )
        cold = cached_dp_makespan(**kwargs)
        clear_cache()  # L1 gone; the next call must come from disk
        warm = cached_dp_makespan(**kwargs)
        assert warm.expected_makespan == cold.expected_makespan
        assert warm.first_chunk == cold.first_chunk
        assert np.array_equal(warm._v_pre, cold._v_pre)
        assert np.array_equal(warm._c_pre, cold._c_pre)
        assert np.array_equal(warm._v_post, cold._v_post)
        assert np.array_equal(warm._c_post, cold._c_post)

    def test_replan_disk_warm_bit_identical(self):
        from repro.core.dp_nextfailure import dp_next_failure_parallel
        from repro.core.state import PlatformState

        dist = Exponential.from_mtbf(DAY)
        ages = np.zeros(4)
        calls = []

        def solve():
            calls.append(1)
            state = PlatformState(ages, dist)
            return dp_next_failure_parallel(2 * HOUR, 600.0, state, 600.0)

        args = (2 * HOUR, 600.0, dist, ages, 600.0, 10, 100, True, solve)
        cold = cached_replan(*args)
        from repro.core.cache import clear_replan_memo

        clear_replan_memo()
        warm = cached_replan(*args)
        assert len(calls) == 1  # second call served from disk, not solved
        assert np.array_equal(warm.chunks, cold.chunks)
        assert warm.expected_work == cold.expected_work
        assert warm.u == cold.u

    def test_replan_entry_holds_only_the_schedule(self):
        """A replan result carries no DP table, in memory or on disk."""
        import dataclasses

        from repro.core.dp_nextfailure import dp_next_failure_parallel
        from repro.core.state import PlatformState

        dist = Weibull.from_mtbf(DAY, 0.7)
        ages = np.array([0.0, 600.0, 3 * HOUR])

        def solve():
            return dp_next_failure_parallel(
                4 * HOUR, 600.0, PlatformState(ages, dist), 600.0
            )

        result = cached_replan(
            4 * HOUR, 600.0, dist, ages, 600.0, 10, 100, True, solve
        )
        fields = {f.name for f in dataclasses.fields(result)}
        assert fields == {"chunks", "expected_work", "u"}
        entries = list((get_disk_cache().root / "replan").rglob("*.solve"))
        assert len(entries) == 1
        digest = entries[0].stem
        payload = decode_entry(entries[0].read_bytes(), "replan", digest)
        assert set(payload) == {"chunks", "expected_work", "u"}

    def test_load_handles_missing_fields(self, tmp_path, monkeypatch):
        """A payload missing required arrays is a miss, not a crash."""
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path))
        from repro.core import diskcache

        key = ("incomplete",)
        diskcache.get_disk_cache().store(
            "dp_makespan", key, {"expected_makespan": np.float64(1.0)}
        )
        assert load_dp_makespan(key) is None
