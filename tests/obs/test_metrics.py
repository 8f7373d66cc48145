"""Unit tests for the metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    merge_snapshots,
    render_snapshot_text,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounterAndGauge:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter("c").value == 5  # get-or-create: same object

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value == 7

    def test_kind_conflict_raises(self, registry):
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")
        with pytest.raises(ValueError):
            registry.histogram("m")


class TestHistogramBucketEdges:
    def test_value_at_bound_lands_in_that_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        hist.observe(1.0)  # le semantics: exactly at the first bound
        hist.observe(2.0)
        assert hist.counts == [1, 1, 0, 0]

    def test_value_between_bounds_lands_in_upper(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        hist.observe(1.5)
        hist.observe(4.999)
        assert hist.counts == [0, 1, 1, 0]

    def test_value_above_every_bound_lands_in_overflow(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1000)
        assert hist.counts == [0, 0, 1]

    def test_default_time_bucket_edges(self):
        hist = Histogram("h", bounds=DEFAULT_TIME_BUCKETS)
        hist.observe(0.0005)  # first bound exactly
        hist.observe(0.00051)  # just past it
        hist.observe(999)  # beyond 30s
        assert hist.counts[0] == 1
        assert hist.counts[1] == 1
        assert hist.counts[-1] == 1

    def test_sum_count_mean(self):
        hist = Histogram("h", bounds=DEFAULT_COUNT_BUCKETS)
        hist.observe(10)
        hist.observe(30)
        assert hist.count == 2
        assert hist.sum == 40
        assert hist.sum / hist.count == 20

    def test_empty_or_duplicate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_INSTRUMENT
        assert registry.gauge("b") is NULL_INSTRUMENT
        assert registry.histogram("c") is NULL_INSTRUMENT

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(100)
        registry.histogram("c").observe(1.0)
        assert registry.snapshot() == {}

    def test_flipping_enabled_takes_effect_immediately(self, registry):
        registry.counter("a").inc()
        registry.enabled = False
        registry.counter("a").inc(100)  # null instrument: dropped
        registry.enabled = True
        assert registry.counter("a").value == 1


class TestSnapshots:
    def test_snapshot_is_sorted_and_json_ready(self, registry):
        registry.counter("z").inc()
        registry.gauge("a").set(3)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "z"]
        assert snapshot["z"] == {"type": "counter", "value": 1}

    def test_merge_counters_add(self):
        base = {"c": {"type": "counter", "value": 3}}
        update = {"c": {"type": "counter", "value": 4}}
        assert merge_snapshots(base, update)["c"]["value"] == 7

    def test_merge_gauges_take_newer(self):
        base = {"g": {"type": "gauge", "value": 3}}
        update = {"g": {"type": "gauge", "value": 4}}
        assert merge_snapshots(base, update)["g"]["value"] == 4

    def test_merge_histograms_add_counts_and_sums(self):
        entry = {
            "type": "histogram", "bounds": [1.0, 2.0],
            "counts": [1, 2, 3], "sum": 10.0, "count": 6,
        }
        merged = merge_snapshots({"h": entry}, {"h": dict(entry)})
        assert merged["h"]["counts"] == [2, 4, 6]
        assert merged["h"]["sum"] == 20.0
        assert merged["h"]["count"] == 12

    def test_merge_mismatched_shapes_keep_newer(self):
        base = {"m": {"type": "counter", "value": 3}}
        update = {"m": {"type": "gauge", "value": 4}}
        assert merge_snapshots(base, update)["m"]["type"] == "gauge"
        base = {"h": {"type": "histogram", "bounds": [1.0],
                      "counts": [0, 1], "sum": 2.0, "count": 1}}
        update = {"h": {"type": "histogram", "bounds": [5.0],
                        "counts": [1, 0], "sum": 3.0, "count": 1}}
        assert merge_snapshots(base, update)["h"]["bounds"] == [5.0]

    def test_merge_leaves_inputs_unchanged(self):
        base = {"c": {"type": "counter", "value": 1}}
        update = {"c": {"type": "counter", "value": 1}}
        merge_snapshots(base, update)
        assert base["c"]["value"] == 1 and update["c"]["value"] == 1

    def test_render_text(self, registry):
        assert render_snapshot_text({}) == "(no metrics recorded)"
        registry.counter("queries").inc(2)
        registry.histogram("seconds").observe(0.5)
        text = render_snapshot_text(registry.snapshot())
        assert "queries" in text and "value=2" in text
        assert "seconds" in text and "count=1" in text


class TestAbsorb:
    """Worker-snapshot absorption (the serving layer's metrics merge)."""

    def test_counters_add_gauges_overwrite(self, registry):
        registry.counter("c").inc(3)
        registry.gauge("g").set(1)
        registry.absorb({
            "c": {"type": "counter", "value": 4},
            "g": {"type": "gauge", "value": 9},
        })
        assert registry.counter("c").value == 7
        assert registry.gauge("g").value == 9

    def test_histograms_add(self, registry):
        registry.histogram("h", [1.0, 2.0]).observe(0.5)
        registry.absorb({
            "h": {
                "type": "histogram", "bounds": [1.0, 2.0],
                "counts": [1, 2, 3], "sum": 10.0, "count": 6,
            }
        })
        histogram = registry.get("h")
        assert histogram.counts == [2, 2, 3]
        assert histogram.sum == 10.5
        assert histogram.count == 7

    def test_new_instruments_are_created(self, registry):
        registry.absorb({"fresh": {"type": "counter", "value": 2}})
        assert registry.counter("fresh").value == 2

    def test_disabled_registry_absorbs_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.absorb({"c": {"type": "counter", "value": 2}})
        registry.enabled = True
        assert registry.get("c") is None

    def test_malformed_entries_cannot_wedge_the_registry(self, registry):
        registry.counter("ok").inc()
        registry.absorb({
            "bad-kind": {"type": "mystery", "value": 1},
            "bad-value": {"type": "counter", "value": "NaN-ish"},
            "bad-bounds": {
                "type": "histogram", "bounds": [2.0, 1.0, 2.0],
                "counts": [1, 1, 1], "sum": 1.0, "count": 3,
            },
            "mismatched-counts": {
                "type": "histogram", "bounds": [1.0],
                "counts": [1], "sum": 1.0, "count": 1,
            },
            "still-ok": {"type": "counter", "value": 5},
        })
        assert registry.counter("ok").value == 1
        assert registry.counter("still-ok").value == 5

    def test_type_conflicts_are_skipped(self, registry):
        registry.counter("c").inc()
        registry.absorb({"c": {"type": "gauge", "value": 9}})
        assert registry.counter("c").value == 1

    def test_concurrent_absorb_loses_no_updates(self, registry):
        # The serving parent absorbs worker deltas from its supervisor
        # thread while the main thread records its own metrics; nothing
        # may be lost and instrument creation must never race into
        # duplicates.
        rounds, per_round = 20, 10
        delta = {
            "shared.counter": {"type": "counter", "value": per_round},
            "shared.hist": {
                "type": "histogram", "bounds": [1.0, 2.0],
                "counts": [per_round, 0, 0],
                "sum": 0.5 * per_round, "count": per_round,
            },
        }

        def absorb_deltas():
            for _ in range(rounds):
                registry.absorb(delta)

        def record_directly():
            for _ in range(rounds * per_round):
                registry.counter("shared.counter").inc()
                registry.histogram("shared.hist", [1.0, 2.0]).observe(0.5)

        threads = [
            threading.Thread(target=absorb_deltas),
            threading.Thread(target=absorb_deltas),
            threading.Thread(target=record_directly),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = 3 * rounds * per_round
        assert registry.counter("shared.counter").value == expected
        histogram = registry.get("shared.hist")
        assert histogram.count == expected
        assert histogram.counts[0] == expected
