"""Tests for ``repro.store`` — the content-addressed persistent cache.

Covers key derivation stability, the two-tier lookup path (memory hit /
disk hit / miss, with per-tier stats), corruption quarantine, and
size-budget eviction with its in-process disk bound.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import pytest

from repro.store import ContentStore, store_key


@pytest.fixture
def store(tmp_path) -> ContentStore:
    return ContentStore(tmp_path / "store")


class TestStoreKey:
    def test_deterministic_and_order_insensitive(self):
        a = store_key("thing", alpha=1, beta="x")
        b = store_key("thing", beta="x", alpha=1)
        assert a == b
        assert a.startswith("thing-")

    def test_distinct_parts_distinct_keys(self):
        base = store_key("thing", alpha=1)
        assert store_key("thing", alpha=2) != base
        assert store_key("other", alpha=1) != base
        # Type distinctions survive canonicalisation.
        assert store_key("thing", alpha="1") != base

    def test_nested_containers_canonicalise(self):
        a = store_key("k", parts=(1, "two", (3.0, None)))
        b = store_key("k", parts=[1, "two", [3.0, None]])
        assert a == b  # tuples and lists canonicalise alike

    def test_unstable_repr_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="no stable repr"):
            store_key("thing", obj=Opaque())


class TestContentStore:
    def test_hand_built_entry_reads_as_a_hit(self, tmp_path):
        """The on-disk layout is pinned: ``REPRO-STORE-1\\n``, the SHA-256
        hex of the pickle, a newline, then the protocol-4 pickle."""
        key = store_key("unit", n=0)
        payload = pickle.dumps({"answer": 42}, protocol=4)
        data = (
            b"REPRO-STORE-1\n"
            + hashlib.sha256(payload).hexdigest().encode("ascii")
            + b"\n"
            + payload
        )
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / f"{key}.pkl").write_bytes(data)
        fresh = ContentStore(tmp_path / "store")
        assert fresh.get(key) == (True, {"answer": 42})
        assert fresh.stats_dict()["disk_hits"] == 1
        # A put writes the same bytes back.
        fresh.put(key, {"answer": 42})
        assert (tmp_path / "store" / f"{key}.pkl").read_bytes() == data

    def test_miss_then_put_then_memory_hit(self, store):
        key = store_key("unit", n=1)
        found, value = store.get(key)
        assert not found and value is None
        store.put(key, {"answer": 42})
        found, value = store.get(key)
        assert found and value == {"answer": 42}
        stats = store.stats_dict()
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 1
        assert stats["disk_hits"] == 0
        assert stats["puts"] == 1
        assert stats["bytes_written"] > 0

    def test_disk_hit_survives_new_process_state(self, store, tmp_path):
        key = store_key("unit", n=2)
        store.put(key, [1, 2, 3])
        # A second store over the same root models a fresh process.
        fresh = ContentStore(tmp_path / "store")
        found, value = fresh.get(key)
        assert found and value == [1, 2, 3]
        assert fresh.stats_dict()["disk_hits"] == 1
        # The disk hit populated the memory tier.
        found, _ = fresh.get(key)
        assert found
        assert fresh.stats_dict()["memory_hits"] == 1

    def test_memory_false_bypasses_memory_tier(self, store):
        key = store_key("unit", n=3)
        store.put(key, "v", memory=False)
        found, value = store.get(key)
        assert found and value == "v"
        stats = store.stats_dict()
        assert stats["disk_hits"] == 1
        assert stats["memory_hits"] == 0

    def test_contains_and_total_bytes(self, store):
        key = store_key("unit", n=4)
        assert not store.contains(key)
        store.put(key, b"payload")
        assert store.contains(key)
        assert store.total_bytes() > 0

    def test_corrupt_file_reads_as_miss_and_is_deleted(self, store):
        key = store_key("unit", n=5)
        store.put(key, "good")
        path = store.root / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:-3] + b"???")
        fresh = ContentStore(store.root)  # an empty memory tier: disk path
        found, value = fresh.get(key)
        assert not found and value is None
        assert not path.exists()
        stats = fresh.stats_dict()
        assert stats["corrupt"] == 1

    def test_foreign_file_reads_as_miss(self, store):
        key = store_key("unit", n=6)
        (store.root / f"{key}.pkl").write_bytes(b"not a store file")
        found, _ = store.get(key)
        assert not found
        assert store.stats_dict()["corrupt"] == 1

    def test_eviction_to_byte_budget(self, tmp_path):
        store = ContentStore(tmp_path / "s", max_bytes=1)
        blob = os.urandom(512)
        keys = [store_key("unit", n=i, blob=i) for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, blob + bytes([i]))
        # Budget of one byte: every put immediately evicts down to at
        # most one resident file (the newest, which alone exceeds it).
        assert store.stats_dict()["evictions"] >= 3
        resident = list((tmp_path / "s").glob("*.pkl"))
        assert len(resident) <= 1

    def test_lru_eviction_prefers_stale_entries(self, tmp_path):
        store = ContentStore(tmp_path / "s", max_bytes=0)  # 0 = unbounded
        old, new = store_key("u", n=1), store_key("u", n=2)
        store.put(old, "old")
        store.put(new, "new")
        # Make mtimes deterministic, then touch ``old`` via a hit.
        os.utime(store.root / f"{old}.pkl", (1, 1))
        os.utime(store.root / f"{new}.pkl", (2, 2))
        ContentStore(store.root, max_bytes=0).get(old)  # a disk hit
        store.max_bytes = store.total_bytes() - 1
        store.evict_to_budget()
        assert store.contains(old)  # recently used: kept
        assert not store.contains(new)

    def test_memory_tier_is_bounded(self, tmp_path):
        store = ContentStore(tmp_path / "s", memory_entries=2)
        keys = [store_key("u", n=i) for i in range(3)]
        for key in keys:
            store.put(key, key)
        assert len(store._memory) == 2
        assert keys[0] not in store._memory  # oldest evicted

    def test_clear_drops_both_tiers(self, store):
        key = store_key("unit", n=7)
        store.put(key, "v")
        store.clear()
        assert not store.contains(key)
        assert store.total_bytes() == 0


class TestDiskBound:
    """Puts under budget do not re-list the store directory."""

    def _count_listings(self, monkeypatch):
        listings = []
        entries = ContentStore._entries

        def spy(self):
            listings.append(1)
            return entries(self)

        monkeypatch.setattr(ContentStore, "_entries", spy)
        return listings

    def test_under_budget_puts_list_once(self, store, monkeypatch):
        listings = self._count_listings(monkeypatch)
        for i in range(50):
            store.put(store_key("unit", n=i), i)
        assert len(listings) <= 1
        assert store.stats_dict()["evictions"] == 0

    def test_bound_past_budget_scans_and_evicts(self, tmp_path, monkeypatch):
        store = ContentStore(tmp_path / "s")
        store.put(store_key("unit", n=0), os.urandom(512))
        store.max_bytes = store.total_bytes() * 5 // 2
        listings = self._count_listings(monkeypatch)
        store.put(store_key("unit", n=1), os.urandom(512))
        assert listings == []  # two files fit the budget
        store.put(store_key("unit", n=2), os.urandom(512))
        assert len(listings) == 1  # three do not: scan, evict the oldest
        assert store.stats_dict()["evictions"] == 1
        assert store.total_bytes() <= store.max_bytes

    def test_overwrite_never_under_evicts(self, tmp_path):
        store = ContentStore(tmp_path / "s")
        key = store_key("unit", n=0)
        for _ in range(3):
            store.put(key, os.urandom(512))
        assert store.total_bytes() <= store._disk_bound

    def test_clear_resets_the_bound(self, store, monkeypatch):
        store.put(store_key("unit", n=0), "v")
        store.clear()
        listings = self._count_listings(monkeypatch)
        store.put(store_key("unit", n=1), "v")
        assert len(listings) == 1
        assert store._disk_bound == store.total_bytes()
