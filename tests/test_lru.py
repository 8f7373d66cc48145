"""The shared thread-safe LRU cache behind the query and plan caches."""

import threading

import pytest

from repro.lru import LruCache
from repro.obs.metrics import REGISTRY


@pytest.fixture(autouse=True)
def clean_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class TestLruSemantics:
    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1
        assert "a" in cache

    def test_get_default(self):
        cache = LruCache(4)
        sentinel = object()
        assert cache.get("missing", sentinel) is sentinel

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        cache.get("a")  # refresh a; b is now LRU
        assert cache.put("c", 3) == 1  # put reports what it evicted
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_contains_does_not_touch_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # membership probe, not a use
        cache.put("c", 3)
        assert "a" not in cache  # a was still LRU

    def test_zero_size_disables_storage(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.hits  # touch
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_keys_lru_first(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ["b", "a"]


class TestLruCounters:
    def test_hit_miss_eviction_counts(self):
        cache = LruCache(1)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts a
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.evictions == 1

    def test_reset_counters_keeps_entries(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("x")
        cache.reset_counters()
        assert cache.hits == 0 and cache.misses == 0 and cache.evictions == 0
        assert cache.get("a") == 1

    def test_metrics_emitted_under_prefix(self):
        cache = LruCache(1, metric_prefix="test.cache")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        snapshot = REGISTRY.snapshot()
        assert snapshot["test.cache.misses"]["value"] == 1
        assert snapshot["test.cache.hits"]["value"] == 1
        assert snapshot["test.cache.evictions"]["value"] == 1

    def test_no_prefix_emits_nothing(self):
        cache = LruCache(1)
        cache.get("a")
        cache.put("a", 1)
        assert REGISTRY.snapshot() == {}


class TestLruThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = LruCache(32, metric_prefix="test.threaded")
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    key = f"k{(base * 31 + i) % 64}"
                    if i % 3 == 0:
                        cache.put(key, i)
                    else:
                        cache.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
        # Accounting stayed consistent: every get was a hit or a miss.
        gets = 8 * 500 - sum(1 for i in range(500) if i % 3 == 0) * 8
        assert cache.hits + cache.misses == gets
